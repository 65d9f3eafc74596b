//! Numerical verification of the paper's §3 theory.
//!
//! The paper's formal analysis rests on a handful of exact algebraic
//! identities (Propositions 1–4, Theorem 1) plus the local FR/FD metrics of
//! Definitions 1–2 and the filtering-impact predicate 𝒫 (Eq. 12). This
//! module implements each object *literally from its definition* so the
//! test-suite can check the identities numerically on random instances —
//! the Rust analogue of re-deriving the appendix proofs.
//!
//! Everything here works on plain matrices (no autodiff): the point is to
//! validate the closed forms the operators and diagnostics rely on.

use rgae_linalg::{gram_row_fold, gram_row_map, sigmoid, softplus, Csr, Mat};

/// The graph-weighted Laplacian loss
/// `L_C(Z, A′) = ½ Σ_{ij} a′_ij ‖z_i − z_j‖²`.
pub fn l_c(z: &Mat, a: &Csr) -> f64 {
    let mut total = 0.0;
    for (i, j, w) in a.iter() {
        let mut d2 = 0.0;
        for (&zi, &zj) in z.row(i).iter().zip(z.row(j)) {
            d2 += (zi - zj) * (zi - zj);
        }
        total += w * d2;
    }
    0.5 * total
}

/// Dense variant of [`l_c`] (the clustering graph is dense-ish).
pub fn l_c_dense(z: &Mat, a: &Mat) -> f64 {
    let n = z.rows();
    let mut total = 0.0;
    for i in 0..n {
        for j in 0..n {
            let w = a[(i, j)];
            if w == 0.0 {
                continue;
            }
            let mut d2 = 0.0;
            for (&zi, &zj) in z.row(i).iter().zip(z.row(j)) {
                d2 += (zi - zj) * (zi - zj);
            }
            total += w * d2;
        }
    }
    0.5 * total
}

/// The Proposition-1 remainder
/// `L_R(Z, A^self) = Σ_{ij} [ log(1 + e^{z_iᵀz_j}) − ½ a_ij (‖z_i‖² + ‖z_j‖²) ]`.
pub fn l_r(z: &Mat, a: &Csr) -> f64 {
    // Row-streamed: each gram row is materialised transiently (O(N) per
    // task instead of a dense N×N gram) and consumed in the same pass.
    let sq = z.row_sq_norms();
    gram_row_fold(z, |i, row| {
        let mut acc = 0.0;
        for &x in row {
            acc += softplus(x);
        }
        for (j, w) in a.row_iter(i) {
            acc -= 0.5 * w * (sq[i] + sq[j]);
        }
        acc
    })
}

/// The full-sum binary cross-entropy of the inner-product decoder against a
/// (binary, possibly self-looped) target — the paper's `L_bce` in its
/// un-normalised Proposition-1 form:
/// `−Σ_{ij} [ a_ij log σ(z_iᵀz_j) + (1 − a_ij) log(1 − σ(z_iᵀz_j)) ]`.
pub fn l_bce(z: &Mat, a: &Csr) -> f64 {
    // Row-streamed like [`l_r`]: no dense N×N gram.
    gram_row_fold(z, |i, row| {
        // a_ij = 0 branch: −log(1 − σ(x)) = softplus(x).
        let mut acc = 0.0;
        for &x in row {
            acc += softplus(x);
        }
        // a_ij = 1 entries: replace softplus(x) with softplus(−x).
        for (j, w) in a.row_iter(i) {
            debug_assert_eq!(w, 1.0);
            let x = row[j];
            acc += softplus(-x) - softplus(x);
        }
        acc
    })
}

/// The embedded k-means loss `Σ_k Σ_{i ∈ C_k} ‖z_i − μ_k‖²` with centroids
/// as cluster means (Proposition 2's left-hand side).
pub fn l_kmeans(z: &Mat, assign: &[usize], k: usize) -> f64 {
    let d = z.cols();
    let mut means = Mat::zeros(k, d);
    let mut counts = vec![0usize; k];
    for (i, &c) in assign.iter().enumerate() {
        counts[c] += 1;
        for (m, &v) in means.row_mut(c).iter_mut().zip(z.row(i)) {
            *m += v;
        }
    }
    for c in 0..k {
        if counts[c] > 0 {
            let inv = 1.0 / counts[c] as f64;
            for m in means.row_mut(c) {
                *m *= inv;
            }
        }
    }
    assign
        .iter()
        .enumerate()
        .map(|(i, &c)| z.row_sq_dist(i, means.row(c)))
        .sum()
}

/// Proposition 3's closed-form gradient of `L_bce` w.r.t. `z_i`:
/// `Σ_j (σ(z_iᵀz_j) − a_ij) z_j` (rows of the returned matrix).
pub fn bce_grad_z(z: &Mat, a: &Csr) -> Mat {
    let n = z.rows();
    // Streamed gram rows plus a CSR merge walk (instead of per-entry `a.get`
    // binary searches): O(N) memory per task, one pass, same values.
    gram_row_map(z, z.cols(), |i, row, out| {
        let mut nz = a.row_iter(i).peekable();
        for j in 0..n {
            let aij = match nz.peek() {
                Some(&(jj, w)) if jj == j => {
                    nz.next();
                    w
                }
                _ => 0.0,
            };
            let coeff = sigmoid(row[j]) - aij;
            for (g, &zj) in out.iter_mut().zip(z.row(j)) {
                *g += coeff * zj;
            }
        }
    })
}

/// Proposition 4's closed-form gradient of `L_C(Z, A^clus)` w.r.t. `z_i`:
/// `Σ_j a^clus_ij (z_i − z_j)`.
pub fn laplacian_grad_z(z: &Mat, a: &Csr) -> Mat {
    let n = z.rows();
    let d = z.cols();
    let mut grad = Mat::zeros(n, d);
    for i in 0..n {
        for (j, w) in a.row_iter(i) {
            for ((g, &zi), &zj) in grad.row_mut(i).iter_mut().zip(z.row(i)).zip(z.row(j)) {
                *g += w * (zi - zj);
            }
        }
    }
    grad
}

/// Numerical gradient of a scalar function of `Z` by central differences.
pub fn numeric_grad(z: &Mat, f: impl Fn(&Mat) -> f64) -> Mat {
    let h = 1e-5;
    let mut grad = Mat::zeros(z.rows(), z.cols());
    let mut zp = z.clone();
    for idx in 0..z.as_slice().len() {
        let orig = zp.as_slice()[idx];
        zp.as_mut_slice()[idx] = orig + h;
        let up = f(&zp);
        zp.as_mut_slice()[idx] = orig - h;
        let down = f(&zp);
        zp.as_mut_slice()[idx] = orig;
        grad.as_mut_slice()[idx] = (up - down) / (2.0 * h);
    }
    grad
}

/// Definition 1's elementary FR metric at node `i`:
/// `⟨ ∂L_C(Z, A^clus)/∂z_i , ∂L_C(Z, A^sup)/∂z_i ⟩`.
pub fn fr_metric_at(z: &Mat, a_clus: &Csr, a_sup: &Csr, i: usize) -> f64 {
    let gc = laplacian_grad_z(z, a_clus);
    let gs = laplacian_grad_z(z, a_sup);
    gc.row(i).iter().zip(gs.row(i)).map(|(&a, &b)| a * b).sum()
}

/// Definition 2's elementary FD metric at node `i`:
/// `⟨ ∂L_C(Z, Ã^self)/∂z_i , ∂L_C(Z, A^sup)/∂z_i ⟩`.
pub fn fd_metric_at(z: &Mat, a_self_norm: &Csr, a_sup: &Csr, i: usize) -> f64 {
    fr_metric_at(z, a_self_norm, a_sup, i)
}

/// The aggregation `h(x_i) = Σ_j ã_ij x_j` used by §3.3.
pub fn aggregate(x: &Mat, a_norm: &Csr, i: usize) -> Vec<f64> {
    let mut out = vec![0.0; x.cols()];
    for (j, w) in a_norm.row_iter(i) {
        for (o, &v) in out.iter_mut().zip(x.row(j)) {
            *o += w * v;
        }
    }
    out
}

/// Eq. 12's filtering-impact predicate:
/// `𝒫(x_i) = ‖x_i − h^sup(x_i)‖ − ‖h^self(x_i) − h^sup(x_i)‖`.
/// Positive values mean the graph filter moves `x_i` *towards* its true
/// cluster centre.
pub fn filtering_impact(x: &Mat, a_self_norm: &Csr, a_sup: &Csr, i: usize) -> f64 {
    let h_self = aggregate(x, a_self_norm, i);
    let h_sup = aggregate(x, a_sup, i);
    let xi: Vec<f64> = x.row(i).to_vec();
    rgae_linalg::euclidean(&xi, &h_sup) - rgae_linalg::euclidean(&h_self, &h_sup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgae_graph::membership_graph;
    use rgae_linalg::{standard_normal, Rng64};

    fn random_instance(seed: u64, n: usize, d: usize) -> (Mat, Csr, Vec<usize>, usize) {
        let mut rng = Rng64::seed_from_u64(seed);
        let z = standard_normal(n, d, &mut rng);
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                if rng.bernoulli(0.3) {
                    edges.push((i, j));
                }
            }
        }
        let a = Csr::adjacency_from_edges(n, &edges).unwrap();
        let k = 3;
        let assign: Vec<usize> = (0..n).map(|_| rng.index(k)).collect();
        (z, a, assign, k)
    }

    /// Proposition 1: `L_bce = L_C(Z, A^self) + L_R(Z, A^self)`.
    #[test]
    fn proposition_1_bce_decomposition() {
        for seed in 0..5 {
            let (z, a, _, _) = random_instance(seed, 8, 3);
            let lhs = l_bce(&z, &a);
            let rhs = l_c(&z, &a) + l_r(&z, &a);
            assert!(
                (lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0),
                "seed {seed}: {lhs} vs {rhs}"
            );
        }
    }

    /// Proposition 2: embedded k-means (with mean centroids) equals
    /// `L_C(Z, A^clus)` with the 1/|C_k| membership graph.
    #[test]
    fn proposition_2_kmeans_is_laplacian() {
        for seed in 5..10 {
            let (z, _, assign, k) = random_instance(seed, 9, 3);
            let lhs = l_kmeans(&z, &assign, k);
            let a_clus = membership_graph(&assign, k);
            let rhs = l_c(&z, &a_clus);
            assert!(
                (lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0),
                "seed {seed}: {lhs} vs {rhs}"
            );
        }
    }

    /// Theorem 1: the combined loss equals
    /// `L_C(Z, A^clus + γ A^self) + γ L_R(Z, A^self)`.
    #[test]
    fn theorem_1_combined_decomposition() {
        for seed in 10..15 {
            let (z, a, assign, k) = random_instance(seed, 8, 3);
            let gamma = 0.37;
            let lhs = l_kmeans(&z, &assign, k) + gamma * l_bce(&z, &a);
            let a_clus = membership_graph(&assign, k).to_dense();
            let combined = a_clus.add(&a.to_dense().scale(gamma)).unwrap();
            let rhs = l_c_dense(&z, &combined) + gamma * l_r(&z, &a);
            assert!(
                (lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0),
                "seed {seed}: {lhs} vs {rhs}"
            );
        }
    }

    /// Proposition 3: the closed-form BCE gradient matches finite
    /// differences of `l_bce`.
    #[test]
    fn proposition_3_bce_gradient() {
        let (z, a, _, _) = random_instance(20, 6, 2);
        let analytic = bce_grad_z(&z, &a);
        let numeric = numeric_grad(&z, |zz| l_bce(zz, &a));
        // `l_bce` sums over ordered pairs, so by symmetry of Â and A the
        // full derivative is exactly twice Proposition 3's per-row form.
        assert!(
            analytic.scale(2.0).max_abs_diff(&numeric) < 1e-4,
            "max diff {}",
            analytic.scale(2.0).max_abs_diff(&numeric)
        );
    }

    /// Proposition 4: the closed-form Laplacian gradient matches finite
    /// differences of `l_c` for the (symmetric) clustering graph.
    #[test]
    fn proposition_4_laplacian_gradient() {
        let (z, _, assign, k) = random_instance(21, 7, 2);
        let a_clus = membership_graph(&assign, k);
        // Σ_j a_ij (z_i − z_j) is the gradient of the *symmetrised* ½ΣΣ form
        // at rate 2× when both (i,j) and (j,i) are present; l_c uses the
        // double sum, so numeric d l_c / d z_i = 2 · Σ_j a_ij (z_i − z_j) / 2
        // … verify directly:
        let analytic = laplacian_grad_z(&z, &a_clus);
        let numeric = numeric_grad(&z, |zz| l_c(zz, &a_clus));
        // For symmetric A, d/dz_i [½ Σ_{jl} a_jl ‖z_j − z_l‖²]
        //   = 2 Σ_j a_ij (z_i − z_j) · ½ · 2 = Σ_j 2a_ij(z_i−z_j)… the
        // factor works out to exactly 2× Proposition 4's per-row form.
        assert!(
            analytic.scale(2.0).max_abs_diff(&numeric) < 1e-4,
            "max diff {}",
            analytic.scale(2.0).max_abs_diff(&numeric)
        );
    }

    /// The FR/FD metrics are inner products of the Proposition-3/4 style
    /// row gradients; identical graphs give non-negative self-similarity.
    #[test]
    fn fr_fd_metrics_basic_properties() {
        let (z, a, assign, k) = random_instance(22, 8, 3);
        let a_clus = membership_graph(&assign, k);
        let a_norm = a.sym_normalized();
        for i in 0..z.rows() {
            // Self inner product is a squared norm.
            assert!(fr_metric_at(&z, &a_clus, &a_clus, i) >= -1e-12);
            let v = fd_metric_at(&z, &a_norm, &a_clus, i);
            assert!(v.is_finite());
        }
    }

    /// 𝒫 on a perfectly homophilous graph: filtering moves nodes towards
    /// their cluster centre, so 𝒫 ≥ 0 (Theorem 4's precondition holds).
    #[test]
    fn filtering_impact_positive_under_homophily() {
        let mut rng = Rng64::seed_from_u64(23);
        // Two tight clusters, edges only inside clusters.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..2 {
            for _ in 0..6 {
                rows.push(vec![
                    c as f64 * 10.0 + rng.normal_with(0.0, 0.5),
                    rng.normal_with(0.0, 0.5),
                ]);
                labels.push(c);
            }
        }
        let x = Mat::from_rows(&rows).unwrap();
        let mut edges = Vec::new();
        for c in 0..2 {
            for i in 0..6 {
                for j in i + 1..6 {
                    edges.push((c * 6 + i, c * 6 + j));
                }
            }
        }
        let a = Csr::adjacency_from_edges(12, &edges).unwrap();
        let a_norm = a.gcn_normalized().unwrap().row_normalized();
        let a_sup = membership_graph(&labels, 2);
        let mut positives = 0;
        for i in 0..12 {
            if filtering_impact(&x, &a_norm, &a_sup, i) >= 0.0 {
                positives += 1;
            }
        }
        assert!(positives >= 10, "only {positives}/12 nodes improved");
    }

    /// Theorem 1's qualitative content: as γ grows the combined graph tilts
    /// from the clustering graph towards the (normalised) input graph —
    /// check the convexity of the mixture directly.
    #[test]
    fn gamma_tradeoff_mixture() {
        let (z, a, assign, k) = random_instance(24, 8, 3);
        let a_clus = membership_graph(&assign, k).to_dense();
        let a_dense = a.to_dense();
        let low = a_clus.add(&a_dense.scale(0.01)).unwrap();
        let high = a_clus.add(&a_dense.scale(10.0)).unwrap();
        // The high-γ loss is dominated by the self-supervision part.
        let self_part = l_c_dense(&z, &a_dense);
        let clus_part = l_c_dense(&z, &a_clus);
        assert!(
            (l_c_dense(&z, &high) - (clus_part + 10.0 * self_part)).abs() < 1e-8,
            "additivity"
        );
        assert!(
            (l_c_dense(&z, &low) - (clus_part + 0.01 * self_part)).abs() < 1e-8,
            "additivity"
        );
    }
}
