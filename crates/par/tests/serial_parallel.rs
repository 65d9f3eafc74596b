//! Differential test suite: every parallel kernel must be **bit-for-bit**
//! equal to its 1-thread execution across thread counts {1, 2, 3, 8}, over
//! ragged shapes (dimensions not divisible by the chunk size, empty rows,
//! single-row matrices).
//!
//! The reference is always computed under `with_threads(1)` — the exact
//! serial path (no pool involvement) — and then compared bitwise against
//! runs at higher thread counts. f64 buffers are compared through their bit
//! patterns so `-0.0 != 0.0` and NaN payload differences would be caught.

use proptest::prelude::*;
use rgae_linalg::{Csr, DecoderNumerics, Mat, Rng64};

const THREADS: [usize; 4] = [1, 2, 3, 8];

fn mat_from(rng_seed: u64, rows: usize, cols: usize) -> Mat {
    let mut rng = Rng64::seed_from_u64(rng_seed);
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| {
            // Mix magnitudes and exact zeros so the zero-skip fast paths and
            // non-associativity-sensitive sums are both exercised.
            if rng.bernoulli(0.15) {
                0.0
            } else {
                rng.normal() * 10f64.powi(rng.index(5) as i32 - 2)
            }
        })
        .collect();
    Mat::from_vec(rows, cols, data).expect("consistent shape")
}

fn csr_from(rng_seed: u64, rows: usize, cols: usize) -> Csr {
    let mut rng = Rng64::seed_from_u64(rng_seed);
    let mut triplets = Vec::new();
    for i in 0..rows {
        // Some rows stay structurally empty.
        if rng.bernoulli(0.25) {
            continue;
        }
        let nnz = rng.index(cols.max(1)).min(6);
        for _ in 0..nnz {
            triplets.push((i, rng.index(cols), rng.uniform_in(0.5, 2.0)));
        }
    }
    Csr::from_triplets(rows, cols, &triplets).expect("valid triplets")
}

fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Run `f` under every thread count and assert the produced matrix is
/// bit-identical to the 1-thread result.
fn assert_mat_invariant(label: &str, f: impl Fn() -> Mat) {
    let reference = rgae_par::with_threads(1, &f);
    for t in &THREADS[1..] {
        let got = rgae_par::with_threads(*t, &f);
        assert_eq!(
            got.shape(),
            reference.shape(),
            "{label}: shape, threads={t}"
        );
        assert_eq!(bits(&got), bits(&reference), "{label}: bits, threads={t}");
    }
}

proptest! {
    /// Dense matmul: ragged shapes including single-row and single-column.
    #[test]
    fn matmul_bitwise_equal(
        (m, k, n) in (1usize..40, 1usize..24, 1usize..40),
        seed in 0u64..1_000_000,
    ) {
        let a = mat_from(seed, m, k);
        let b = mat_from(seed ^ 0xABCD, k, n);
        assert_mat_invariant("matmul", || a.matmul(&b).expect("shapes agree"));
    }

    /// `A·Bᵀ` (used for decoder logits against arbitrary rows).
    #[test]
    fn matmul_t_bitwise_equal(
        (m, k, n) in (1usize..32, 1usize..16, 1usize..32),
        seed in 0u64..1_000_000,
    ) {
        let a = mat_from(seed, m, k);
        let b = mat_from(seed ^ 0x1111, n, k);
        assert_mat_invariant("matmul_t", || a.matmul_t(&b).expect("shapes agree"));
    }

    /// `Aᵀ·B` — the gather rewrite must keep the serial scatter's order.
    #[test]
    fn t_matmul_bitwise_equal(
        (m, k, n) in (1usize..32, 1usize..16, 1usize..32),
        seed in 0u64..1_000_000,
    ) {
        let a = mat_from(seed, m, k);
        let b = mat_from(seed ^ 0x2222, m, n);
        assert_mat_invariant("t_matmul", || a.t_matmul(&b).expect("shapes agree"));
    }

    /// Gram (two-pass upper-triangle + mirror).
    #[test]
    fn gram_bitwise_equal(
        (n, d) in (1usize..48, 1usize..12),
        seed in 0u64..1_000_000,
    ) {
        let z = mat_from(seed, n, d);
        assert_mat_invariant("gram", || z.gram());
    }

    /// Sparse×dense spMM with structurally empty rows.
    #[test]
    fn spmm_bitwise_equal(
        (r, c, d) in (1usize..48, 1usize..32, 1usize..12),
        seed in 0u64..1_000_000,
    ) {
        let s = csr_from(seed, r, c);
        let x = mat_from(seed ^ 0x3333, c, d);
        assert_mat_invariant("spmm", || s.spmm(&x).expect("shapes agree"));
    }

    /// Transposed spMM (ownership-partitioned scatter).
    #[test]
    fn t_spmm_bitwise_equal(
        (r, c, d) in (1usize..48, 1usize..32, 1usize..12),
        seed in 0u64..1_000_000,
    ) {
        let s = csr_from(seed, r, c);
        let x = mat_from(seed ^ 0x4444, r, d);
        assert_mat_invariant("t_spmm", || s.t_spmm(&x).expect("shapes agree"));
    }

    /// Element-wise map / zip_map and pairwise distances.
    #[test]
    fn elementwise_and_pairwise_bitwise_equal(
        (n, d, k) in (1usize..64, 1usize..10, 1usize..8),
        seed in 0u64..1_000_000,
    ) {
        let x = mat_from(seed, n, d);
        let y = mat_from(seed ^ 0x5555, n, d);
        let centers = mat_from(seed ^ 0x6666, k, d);
        assert_mat_invariant("map", || x.map(|v| (v * 1.7).tanh()));
        assert_mat_invariant("zip_map", || {
            x.zip_map(&y, |a, b| a.mul_add(b, -0.25)).expect("same shape")
        });
        assert_mat_invariant("pairwise", || {
            x.pairwise_sq_dists(&centers).expect("same dim")
        });
        assert_mat_invariant("transpose", || x.transpose());
    }

    /// BCE-with-logits loss *and* gradient through a Gram decoder: the full
    /// reconstruction-loss path the trainer runs every epoch.
    #[test]
    fn bce_grad_bitwise_equal(
        (n, d) in (2usize..24, 1usize..8),
        seed in 0u64..1_000_000,
    ) {
        let z0 = mat_from(seed, n, d);
        let adj = csr_from(seed ^ 0x7777, n, n);
        let run = || {
            let mut g = rgae_autodiff::Graph::new();
            let z = g.leaf(z0.clone());
            let logits = rgae_autodiff::reference::gram(&mut g, z);
            let loss = rgae_autodiff::reference::bce_logits_sparse(&mut g, logits, &std::rc::Rc::new(adj.clone()), 3.0, 0.7)
                .expect("shapes agree");
            g.backward(loss).expect("scalar root");
            let lv = g.value(loss).as_slice()[0];
            let grad = g.grad(z).expect("leaf gradient").clone();
            (lv, grad)
        };
        let (loss_ref, grad_ref) = rgae_par::with_threads(1, run);
        for t in &THREADS[1..] {
            let (loss_t, grad_t) = rgae_par::with_threads(*t, run);
            prop_assert_eq!(loss_t.to_bits(), loss_ref.to_bits(), "loss bits, threads={}", t);
            prop_assert_eq!(bits(&grad_t), bits(&grad_ref), "grad bits, threads={}", t);
        }
    }

    /// Fused tiled decoder vs the legacy three-pass gram → BCE → matmul
    /// chain: with a unit upstream gradient (the shape `recon_grad` and the
    /// pretraining loss root use) both the loss and dZ must be bit-for-bit
    /// identical, at every thread count.
    #[test]
    fn fused_decoder_bitwise_matches_legacy(
        (n, d) in (2usize..24, 1usize..8),
        seed in 0u64..1_000_000,
    ) {
        let z0 = mat_from(seed, n, d);
        let adj = std::rc::Rc::new(csr_from(seed ^ 0xAAAA, n, n));
        let legacy = || {
            let mut g = rgae_autodiff::Graph::new();
            let z = g.leaf(z0.clone());
            let s = rgae_autodiff::reference::gram(&mut g, z);
            let loss = rgae_autodiff::reference::bce_logits_sparse(&mut g, s, &adj, 3.0, 0.7).expect("shapes agree");
            g.backward(loss).expect("scalar root");
            (g.value(loss).as_slice()[0], g.grad(z).expect("leaf grad").clone())
        };
        let fused = || {
            let mut g = rgae_autodiff::Graph::new();
            let z = g.leaf(z0.clone());
            let loss = g
                .gram_bce_logits_sparse(z, &adj, 3.0, 0.7, DecoderNumerics::Exact)
                .expect("shapes agree");
            g.backward(loss).expect("scalar root");
            (g.value(loss).as_slice()[0], g.grad(z).expect("leaf grad").clone())
        };
        for t in [1usize, 2, 8] {
            let (loss_l, grad_l) = rgae_par::with_threads(t, legacy);
            let (loss_f, grad_f) = rgae_par::with_threads(t, fused);
            prop_assert_eq!(loss_f.to_bits(), loss_l.to_bits(), "loss bits, threads={}", t);
            prop_assert_eq!(bits(&grad_f), bits(&grad_l), "dZ bits, threads={}", t);
        }
    }

    /// γ-scaled loss roots: the fused backward scales the precomputed unit
    /// dZ by γ *after* the row sums (legacy folds γ into each coefficient
    /// before summing), so dZ bits may differ by rounding — values must
    /// agree to ≤1e-12 relative. The loss itself stays bit-identical.
    #[test]
    fn fused_decoder_gamma_scaled_close(
        (n, d) in (2usize..20, 1usize..6),
        seed in 0u64..1_000_000,
    ) {
        let z0 = mat_from(seed, n, d);
        let adj = std::rc::Rc::new(csr_from(seed ^ 0xBBBB, n, n));
        let gamma = 0.37;
        let run = |fused: bool| {
            let mut g = rgae_autodiff::Graph::new();
            let z = g.leaf(z0.clone());
            let recon = if fused {
                g.gram_bce_logits_sparse(z, &adj, 3.0, 0.7, DecoderNumerics::Exact)
                    .expect("shapes agree")
            } else {
                let s = rgae_autodiff::reference::gram(&mut g, z);
                rgae_autodiff::reference::bce_logits_sparse(&mut g, s, &adj, 3.0, 0.7).expect("shapes agree")
            };
            let loss = g.scale(recon, gamma);
            g.backward(loss).expect("scalar root");
            (g.value(loss).as_slice()[0], g.grad(z).expect("leaf grad").clone())
        };
        let (loss_l, grad_l) = run(false);
        let (loss_f, grad_f) = run(true);
        prop_assert_eq!(loss_f.to_bits(), loss_l.to_bits(), "γ-scaled loss bits");
        for (a, b) in grad_f.as_slice().iter().zip(grad_l.as_slice()) {
            prop_assert!(
                (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                "γ-scaled dZ {} vs {}", a, b
            );
        }
    }

    /// The scalar-loss forwards (`bce_logits_dense`, `kl_div_const_q`,
    /// `gaussian_kl`) now run through ordered `par_sum_by`
    /// reductions: loss and gradient bits must not depend on thread count.
    #[test]
    fn scalar_losses_bitwise_equal(
        (r, c) in (1usize..40, 1usize..16),
        seed in 0u64..1_000_000,
    ) {
        use std::rc::Rc;
        let x0 = mat_from(seed, r, c);
        let mu0 = mat_from(seed ^ 0xCCCC, r, c);
        // Keep log-variances tame so exp() stays finite.
        let lv0 = mat_from(seed ^ 0xDDDD, r, c).map(|v| (v * 0.1).clamp(-5.0, 5.0));
        let t0 = Rc::new(mat_from(seed ^ 0xEEEE, r, c).map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
        let q0 = Rc::new(mat_from(seed ^ 0xFFFF, r, c).map(|v| v.abs() + 0.01));
        let run = || {
            let mut g = rgae_autodiff::Graph::new();
            let x = g.leaf(x0.clone());
            let mu = g.leaf(mu0.clone());
            let lv = g.leaf(lv0.clone());
            let bce = g.bce_logits_dense(x, &t0).expect("shapes agree");
            let kl = g.kl_div_const_q(x, &q0).expect("shapes agree");
            let gkl = g.gaussian_kl(mu, lv).expect("shapes agree");
            let s1 = g.add(bce, kl).expect("scalars");
            let loss = g.add(s1, gkl).expect("scalars");
            g.backward(loss).expect("scalar root");
            (
                [bce, kl, gkl].map(|v| g.value(v).as_slice()[0].to_bits()),
                g.grad(x).expect("x grad").clone(),
                g.grad(mu).expect("mu grad").clone(),
                g.grad(lv).expect("lv grad").clone(),
            )
        };
        let (vals_ref, gx_ref, gm_ref, gl_ref) = rgae_par::with_threads(1, run);
        for t in &THREADS[1..] {
            let (vals, gx, gm, gl) = rgae_par::with_threads(*t, run);
            prop_assert_eq!(vals, vals_ref, "loss bits, threads={}", t);
            prop_assert_eq!(bits(&gx), bits(&gx_ref), "x grad bits, threads={}", t);
            prop_assert_eq!(bits(&gm), bits(&gm_ref), "mu grad bits, threads={}", t);
            prop_assert_eq!(bits(&gl), bits(&gl_ref), "lv grad bits, threads={}", t);
        }
    }

    /// Full k-means runs (seeding draws + Lloyd + re-seed + inertia) are
    /// bit-identical: same assignments, centroid bits, and inertia bits.
    #[test]
    fn kmeans_bitwise_equal(
        (n, d, k) in (8usize..64, 1usize..6, 1usize..5),
        seed in 0u64..1_000_000,
    ) {
        let points = mat_from(seed, n, d);
        let k = k.min(n);
        let run = || {
            let mut rng = Rng64::seed_from_u64(seed ^ 0x8888);
            rgae_cluster::kmeans(&points, k, 40, &mut rng, &rgae_obs::NOOP).expect("k <= n")
        };
        let reference = rgae_par::with_threads(1, run);
        for t in &THREADS[1..] {
            let got = rgae_par::with_threads(*t, run);
            prop_assert_eq!(&got.assignments, &reference.assignments, "threads={}", t);
            prop_assert_eq!(
                bits(&got.centroids),
                bits(&reference.centroids),
                "threads={}", t
            );
            prop_assert_eq!(
                got.inertia.to_bits(),
                reference.inertia.to_bits(),
                "threads={}", t
            );
        }
    }

    /// GMM fits: responsibilities path, ordered log-likelihood reduction,
    /// and the cluster-parallel M step.
    #[test]
    fn gmm_bitwise_equal(
        (n, d, k) in (10usize..48, 1usize..4, 1usize..4),
        seed in 0u64..1_000_000,
    ) {
        let points = mat_from(seed, n, d);
        let k = k.min(n);
        let run = || {
            let mut rng = Rng64::seed_from_u64(seed ^ 0x9999);
            rgae_cluster::GaussianMixture::fit(&points, k, 20, &mut rng, &rgae_obs::NOOP).expect("k <= n")
        };
        let reference = rgae_par::with_threads(1, run);
        for t in &THREADS[1..] {
            let got = rgae_par::with_threads(*t, run);
            prop_assert_eq!(bits(&got.means), bits(&reference.means), "means, threads={}", t);
            prop_assert_eq!(
                bits(&got.variances),
                bits(&reference.variances),
                "variances, threads={}", t
            );
            let wa: Vec<u64> = got.weights.iter().map(|w| w.to_bits()).collect();
            let wb: Vec<u64> = reference.weights.iter().map(|w| w.to_bits()).collect();
            prop_assert_eq!(wa, wb, "weights, threads={}", t);
            prop_assert_eq!(
                got.avg_log_likelihood.to_bits(),
                reference.avg_log_likelihood.to_bits(),
                "log-likelihood, threads={}", t
            );
        }
    }
}

/// Degenerate shapes the property ranges cannot reach: empty matrices,
/// 1×1, and an all-empty sparse matrix.
#[test]
fn degenerate_shapes_bitwise_equal() {
    let cases: Vec<(Mat, Mat)> = vec![
        (Mat::zeros(0, 3), Mat::zeros(3, 4)),
        (Mat::zeros(3, 0), Mat::zeros(0, 4)),
        (mat_from(7, 1, 1), mat_from(8, 1, 1)),
        (mat_from(9, 1, 5), mat_from(10, 5, 1)),
    ];
    for (a, b) in &cases {
        assert_mat_invariant("degenerate matmul", || a.matmul(b).expect("shapes"));
    }
    let empty = Csr::zeros(5, 5);
    let x = mat_from(11, 5, 3);
    assert_mat_invariant("empty spmm", || empty.spmm(&x).expect("shapes"));
    assert_mat_invariant("empty t_spmm", || empty.t_spmm(&x).expect("shapes"));
}

/// The decoder tile bounds peak memory only: fused loss and dZ bits are
/// invariant to the tile override in both numerics modes, exercised here
/// through the autodiff op (the linalg unit tests cover the raw kernel).
#[test]
fn fused_decoder_bits_invariant_to_tile() {
    for numerics in [DecoderNumerics::Exact, DecoderNumerics::Fast] {
        fused_decoder_tile_invariance(numerics);
    }
}

fn fused_decoder_tile_invariance(numerics: DecoderNumerics) {
    let z0 = mat_from(31, 300, 5);
    let adj = std::rc::Rc::new(csr_from(32, 300, 300));
    let run = || {
        let mut g = rgae_autodiff::Graph::new();
        let z = g.leaf(z0.clone());
        let loss = g
            .gram_bce_logits_sparse(z, &adj, 2.0, 0.6, numerics)
            .expect("shapes agree");
        g.backward(loss).expect("scalar root");
        (
            g.value(loss).as_slice()[0],
            g.grad(z).expect("leaf grad").clone(),
        )
    };
    rgae_linalg::set_decoder_tile(None);
    let (loss_ref, grad_ref) = run();
    for tile in [1, 256, 300, 512, 100_000] {
        rgae_linalg::set_decoder_tile(Some(tile));
        let (loss_t, grad_t) = run();
        assert_eq!(
            loss_t.to_bits(),
            loss_ref.to_bits(),
            "loss bits, tile={tile}"
        );
        assert_eq!(bits(&grad_t), bits(&grad_ref), "dZ bits, tile={tile}");
    }
    rgae_linalg::set_decoder_tile(None);
}

/// The ordered reduction itself: chunk decomposition depends only on the
/// item count, so a sum over a thread-count-hostile length (prime, larger
/// than one reduce chunk) is bit-stable.
#[test]
fn ordered_reduction_bit_stable() {
    let n = 4999; // prime, spans multiple REDUCE_CHUNK windows
    let data: Vec<f64> = (0..n)
        .map(|i| ((i as f64) * 0.618).sin() * 10f64.powi((i % 7) as i32 - 3))
        .collect();
    let sum = |range: std::ops::Range<usize>| range.map(|i| data[i]).sum::<f64>();
    let reference = rgae_par::with_threads(1, || rgae_par::par_sum_by(n, sum));
    for t in &THREADS[1..] {
        let got = rgae_par::with_threads(*t, || rgae_par::par_sum_by(n, sum));
        assert_eq!(got.to_bits(), reference.to_bits(), "threads={t}");
    }
}
