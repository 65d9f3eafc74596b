//! Diagonal-covariance Gaussian mixture fitted with EM.

use rgae_linalg::{Mat, Rng64};
use rgae_obs::{span, Recorder};

use crate::{kmeans, par_point_chunk, Error, Result};

/// A fitted diagonal-covariance Gaussian mixture model.
///
/// GMM-VGAE uses a mixture like this as the latent prior; the Ξ operator's
/// Eq. 15 also evaluates Gaussian responsibilities with a diagonal Σ.
#[derive(Clone, Debug)]
pub struct GaussianMixture {
    /// Mixing weights `π_k` (sum to one).
    pub weights: Vec<f64>,
    /// `K×d` component means.
    pub means: Mat,
    /// `K×d` component variances (diagonal Σ, floored at `var_floor`).
    pub variances: Mat,
    /// Final per-point log-likelihood average.
    pub avg_log_likelihood: f64,
}

const VAR_FLOOR: f64 = 1e-6;

impl GaussianMixture {
    /// Fit by EM, initialised from k-means, reporting into `rec` (pass
    /// [`rgae_obs::NOOP`] when there is no run log): a `gmm_fit` span (with
    /// the seeding k-means nested inside), the `gmm_em_iterations` counter,
    /// and the `gmm_avg_log_likelihood` gauge.
    pub fn fit(
        points: &Mat,
        k: usize,
        max_iter: usize,
        rng: &mut Rng64,
        rec: &dyn Recorder,
    ) -> Result<Self> {
        let _gmm = span(rec, "gmm_fit");
        let n = points.rows();
        if k == 0 || n < k {
            return Err(Error::BadClusterCount {
                points: n,
                clusters: k,
            });
        }
        let d = points.cols();
        let km = kmeans(points, k, 50, rng, rec)?;
        let mut means = km.centroids;
        let mut variances = Mat::full(k, d, 1.0);
        // Initial variances from the k-means partition.
        {
            let mut counts = vec![0usize; k];
            let mut acc = Mat::zeros(k, d);
            for i in 0..n {
                let c = km.assignments[i];
                counts[c] += 1;
                for (a, (&p, &m)) in acc
                    .row_mut(c)
                    .iter_mut()
                    .zip(points.row(i).iter().zip(means.row(c)))
                {
                    *a += (p - m) * (p - m);
                }
            }
            for c in 0..k {
                let inv = 1.0 / counts[c].max(1) as f64;
                for (v, &a) in variances.row_mut(c).iter_mut().zip(acc.row(c)) {
                    *v = (a * inv).max(VAR_FLOOR);
                }
            }
        }
        let mut weights = vec![1.0 / k as f64; k];
        let mut avg_ll = f64::NEG_INFINITY;
        let mut em_iterations = 0u64;

        for _ in 0..max_iter {
            em_iterations += 1;
            // E step: responsibilities via log-sum-exp, point-parallel. The
            // log-likelihood is accumulated as one partial per point and
            // folded in index order afterwards, so its bits cannot depend on
            // the thread count.
            let mut resp = Mat::zeros(n, k);
            let mut point_ll = vec![0.0f64; n];
            let chunk = par_point_chunk(n, k * d);
            rgae_par::timed("gmm_estep", || {
                let (weights, means, variances) = (&weights, &means, &variances);
                rgae_par::par_zip_chunks_mut(
                    resp.as_mut_slice(),
                    chunk * k,
                    &mut point_ll,
                    chunk,
                    |ci, resp_w, ll_w| {
                        let i0 = ci * chunk;
                        for (r, (resp_row, ll)) in
                            resp_w.chunks_mut(k).zip(ll_w.iter_mut()).enumerate()
                        {
                            let i = i0 + r;
                            let mut logp = vec![0.0; k];
                            for c in 0..k {
                                logp[c] = weights[c].max(1e-300).ln()
                                    + log_gauss_diag(points.row(i), means.row(c), variances.row(c));
                            }
                            let mx = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                            let mut sum = 0.0;
                            for lp in &mut logp {
                                *lp = (*lp - mx).exp();
                                sum += *lp;
                            }
                            *ll = mx + sum.ln();
                            for c in 0..k {
                                resp_row[c] = logp[c] / sum;
                            }
                        }
                    },
                );
            });
            let ll: f64 = point_ll.iter().sum();
            let new_avg = ll / n as f64;
            let converged = (new_avg - avg_ll).abs() < 1e-7;
            avg_ll = new_avg;

            // M step: cluster-parallel. Each task owns one cluster's stats
            // stripe `[mean(d) | var(d) | weight]`, scanning the points in
            // ascending order exactly as the serial loop did.
            let nk: Vec<f64> = (0..k).map(|c| resp.col(c).iter().sum()).collect();
            let mut stats = vec![0.0f64; k * (2 * d + 1)];
            rgae_par::timed("gmm_mstep", || {
                let (nk, resp) = (&nk, &resp);
                rgae_par::par_chunks_mut(&mut stats, 2 * d + 1, |c, stripe| {
                    let denom = nk[c].max(1e-12);
                    let (mean, rest) = stripe.split_at_mut(d);
                    let (var, weight) = rest.split_at_mut(d);
                    weight[0] = nk[c] / n as f64;
                    for i in 0..n {
                        let r = resp[(i, c)];
                        for (m, &p) in mean.iter_mut().zip(points.row(i)) {
                            *m += r * p;
                        }
                    }
                    for m in mean.iter_mut() {
                        *m /= denom;
                    }
                    for i in 0..n {
                        let r = resp[(i, c)];
                        for (v, (&p, &m)) in var.iter_mut().zip(points.row(i).iter().zip(&*mean)) {
                            *v += r * (p - m) * (p - m);
                        }
                    }
                    for v in var.iter_mut() {
                        *v = (*v / denom).max(VAR_FLOOR);
                    }
                });
            });
            for c in 0..k {
                let stripe = &stats[c * (2 * d + 1)..(c + 1) * (2 * d + 1)];
                means.row_mut(c).copy_from_slice(&stripe[..d]);
                variances.row_mut(c).copy_from_slice(&stripe[d..2 * d]);
                weights[c] = stripe[2 * d];
            }
            if converged {
                break;
            }
        }
        rec.count("gmm_em_iterations", em_iterations);
        if rec.enabled() {
            rec.gauge("gmm_avg_log_likelihood", None, avg_ll);
        }
        Ok(GaussianMixture {
            weights,
            means,
            variances,
            avg_log_likelihood: avg_ll,
        })
    }

    /// Number of components.
    pub fn k(&self) -> usize {
        self.weights.len()
    }

    /// Posterior responsibilities `p(k | x_i)` → `(n, K)` rows summing to 1.
    pub fn responsibilities(&self, points: &Mat) -> Mat {
        let n = points.rows();
        let k = self.k();
        let mut out = Mat::zeros(n, k);
        if n == 0 {
            return out;
        }
        let chunk = par_point_chunk(n, k * points.cols());
        rgae_par::par_chunks_mut(out.as_mut_slice(), chunk * k, |ci, w| {
            let i0 = ci * chunk;
            for (r, out_row) in w.chunks_mut(k).enumerate() {
                let i = i0 + r;
                let mut logp = vec![0.0; k];
                for c in 0..k {
                    logp[c] = self.weights[c].max(1e-300).ln()
                        + log_gauss_diag(points.row(i), self.means.row(c), self.variances.row(c));
                }
                let mx = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let mut sum = 0.0;
                for lp in &mut logp {
                    *lp = (*lp - mx).exp();
                    sum += *lp;
                }
                for c in 0..k {
                    out_row[c] = logp[c] / sum;
                }
            }
        });
        out
    }
}

/// Log-density of a diagonal Gaussian.
fn log_gauss_diag(x: &[f64], mean: &[f64], var: &[f64]) -> f64 {
    let ln2pi = (2.0 * std::f64::consts::PI).ln();
    let mut acc = 0.0;
    for ((&xi, &mi), &vi) in x.iter().zip(mean).zip(var) {
        let v = vi.max(VAR_FLOOR);
        acc += -0.5 * (ln2pi + v.ln() + (xi - mi) * (xi - mi) / v);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgae_obs::NOOP;

    fn blobs(rng: &mut Rng64, sep: f64) -> (Mat, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for k in 0..2 {
            for _ in 0..60 {
                rows.push(vec![
                    rng.normal_with(k as f64 * sep, 0.4),
                    rng.normal_with(0.0, 0.4),
                ]);
                labels.push(k);
            }
        }
        (Mat::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn fits_two_separated_blobs() {
        let mut rng = Rng64::seed_from_u64(1);
        let (x, labels) = blobs(&mut rng, 8.0);
        let gmm = GaussianMixture::fit(&x, 2, 100, &mut rng, &NOOP).unwrap();
        let pred = gmm.responsibilities(&x).row_argmax();
        // Up to label permutation the prediction is perfect.
        let agree = pred.iter().zip(&labels).filter(|(&p, &l)| p == l).count();
        let acc = agree.max(pred.len() - agree) as f64 / pred.len() as f64;
        assert!(acc > 0.98, "acc {acc}");
    }

    #[test]
    fn responsibilities_are_distributions() {
        let mut rng = Rng64::seed_from_u64(2);
        let (x, _) = blobs(&mut rng, 5.0);
        let gmm = GaussianMixture::fit(&x, 3, 50, &mut rng, &NOOP).unwrap();
        let r = gmm.responsibilities(&x);
        for i in 0..x.rows() {
            let s: f64 = r.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(r.row(i).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let mut rng = Rng64::seed_from_u64(3);
        let (x, _) = blobs(&mut rng, 6.0);
        let gmm = GaussianMixture::fit(&x, 2, 50, &mut rng, &NOOP).unwrap();
        assert!((gmm.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn variances_floored_positive() {
        // Duplicate points would produce zero variance without the floor.
        let x = Mat::from_rows(&vec![vec![1.0, 1.0]; 10]).unwrap();
        let mut rng = Rng64::seed_from_u64(4);
        let gmm = GaussianMixture::fit(&x, 1, 20, &mut rng, &NOOP).unwrap();
        assert!(gmm.variances.as_slice().iter().all(|&v| v >= VAR_FLOOR));
    }

    #[test]
    fn likelihood_improves_with_right_k() {
        let mut rng = Rng64::seed_from_u64(5);
        let (x, _) = blobs(&mut rng, 10.0);
        let g1 = GaussianMixture::fit(&x, 1, 100, &mut rng, &NOOP).unwrap();
        let g2 = GaussianMixture::fit(&x, 2, 100, &mut rng, &NOOP).unwrap();
        assert!(g2.avg_log_likelihood > g1.avg_log_likelihood);
    }

    #[test]
    fn rejects_bad_k() {
        let x = Mat::zeros(2, 2);
        let mut rng = Rng64::seed_from_u64(6);
        assert!(GaussianMixture::fit(&x, 0, 10, &mut rng, &NOOP).is_err());
        assert!(GaussianMixture::fit(&x, 5, 10, &mut rng, &NOOP).is_err());
    }
}
