//! k-means with k-means++ seeding.

use rgae_linalg::{Mat, Rng64};
use rgae_obs::{span, Recorder};

use crate::{par_point_chunk, Error, Result};

/// Output of [`kmeans`].
#[derive(Clone, Debug)]
pub struct KMeansResult {
    /// Cluster index per point.
    pub assignments: Vec<usize>,
    /// `K×d` matrix of centroids.
    pub centroids: Mat,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

/// k-means++ seeding followed by Lloyd iterations until assignment
/// convergence or `max_iter`.
///
/// Empty clusters are re-seeded with the point farthest from its centroid,
/// so the result always has exactly `k` non-empty clusters when `n ≥ k`.
///
/// Reports into `rec` (pass [`rgae_obs::NOOP`] when there is no run log): a
/// `kmeans` span plus the `kmeans_iterations` counter and `kmeans_inertia`
/// gauge.
pub fn kmeans(
    points: &Mat,
    k: usize,
    max_iter: usize,
    rng: &mut Rng64,
    rec: &dyn Recorder,
) -> Result<KMeansResult> {
    let _kmeans = span(rec, "kmeans");
    let n = points.rows();
    if k == 0 || n < k {
        return Err(Error::BadClusterCount {
            points: n,
            clusters: k,
        });
    }
    let d = points.cols();

    // --- k-means++ seeding ---------------------------------------------
    let mut centroids = Mat::zeros(k, d);
    let first = rng.index(n);
    centroids.row_mut(0).copy_from_slice(points.row(first));
    let mut min_sq = vec![f64::INFINITY; n];
    for c in 1..k {
        // Per-point distance refresh is independent per element, so it can
        // chunk freely; the RNG draw below stays serial and in order.
        let chunk = par_point_chunk(n, d);
        let prev = centroids.row(c - 1).to_vec();
        rgae_par::par_chunks_mut(&mut min_sq, chunk, |ci, w| {
            let i0 = ci * chunk;
            for (r, m) in w.iter_mut().enumerate() {
                let dist = points.row_sq_dist(i0 + r, &prev);
                if dist < *m {
                    *m = dist;
                }
            }
        });
        let next = rng.categorical(&min_sq);
        centroids.row_mut(c).copy_from_slice(points.row(next));
    }

    // --- Lloyd iterations ------------------------------------------------
    let mut assignments = vec![0usize; n];
    let mut iterations = 0;
    for it in 0..max_iter {
        iterations = it + 1;
        // Assignment step: per-point nearest centroid, point-parallel.
        // Each task owns a stripe of `assignments` plus one change flag.
        let chunk = par_point_chunk(n, k * d);
        let n_chunks = n.div_ceil(chunk);
        let mut chunk_changed = vec![0u8; n_chunks];
        rgae_par::timed("kmeans_assign", || {
            rgae_par::par_zip_chunks_mut(
                &mut assignments,
                chunk,
                &mut chunk_changed,
                1,
                |ci, assign_w, flag| {
                    let i0 = ci * chunk;
                    for (r, a) in assign_w.iter_mut().enumerate() {
                        let i = i0 + r;
                        let mut best = 0;
                        let mut best_d = f64::INFINITY;
                        for c in 0..k {
                            let dist = points.row_sq_dist(i, centroids.row(c));
                            if dist < best_d {
                                best_d = dist;
                                best = c;
                            }
                        }
                        if *a != best {
                            *a = best;
                            flag[0] = 1;
                        }
                    }
                },
            );
        });
        let changed = chunk_changed.iter().any(|&f| f != 0);
        if !changed && it > 0 {
            break;
        }
        // Update step.
        let mut counts = vec![0usize; k];
        let mut sums = Mat::zeros(k, d);
        for i in 0..n {
            let c = assignments[i];
            counts[c] += 1;
            for (s, &p) in sums.row_mut(c).iter_mut().zip(points.row(i)) {
                *s += p;
            }
        }
        // Empty-cluster re-seeding is decided *before* any centroid moves:
        // the farthest-point ranking is computed once against the snapshot
        // of assignments and centroids the assignment step produced, so the
        // selection is independent of how that step was chunked (and of any
        // previously re-seeded cluster in the same pass).
        let empties: Vec<usize> = (0..k).filter(|&c| counts[c] == 0).collect();
        let mut reseeds: Vec<(usize, usize)> = Vec::with_capacity(empties.len());
        if !empties.is_empty() {
            let far_chunk = par_point_chunk(n, d);
            let mut far_dist = vec![0.0f64; n];
            rgae_par::par_chunks_mut(&mut far_dist, far_chunk, |ci, w| {
                let i0 = ci * far_chunk;
                for (r, out) in w.iter_mut().enumerate() {
                    let i = i0 + r;
                    *out = points.row_sq_dist(i, centroids.row(assignments[i]));
                }
            });
            let mut taken = vec![false; n];
            for &c in &empties {
                let mut far = 0;
                let mut best = f64::NEG_INFINITY;
                for i in 0..n {
                    // `>=` keeps the last maximum, matching `max_by` ties.
                    if !taken[i] && far_dist[i] >= best {
                        best = far_dist[i];
                        far = i;
                    }
                }
                taken[far] = true;
                reseeds.push((c, far));
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f64;
                for (ctr, &s) in centroids.row_mut(c).iter_mut().zip(sums.row(c)) {
                    *ctr = s * inv;
                }
            }
        }
        for &(c, far) in &reseeds {
            centroids.row_mut(c).copy_from_slice(points.row(far));
            assignments[far] = c;
        }
    }

    // Ordered reduction: fixed-width per-point partials folded in index
    // order, identical at any thread count.
    let inertia: f64 = rgae_par::par_sum_by(n, |range| {
        range
            .map(|i| points.row_sq_dist(i, centroids.row(assignments[i])))
            .sum::<f64>()
    });
    rec.count("kmeans_iterations", iterations as u64);
    if rec.enabled() {
        rec.gauge("kmeans_inertia", None, inertia);
    }
    Ok(KMeansResult {
        assignments,
        centroids,
        inertia,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgae_obs::NOOP;

    /// Three well-separated blobs in 2-D.
    fn blobs(rng: &mut Rng64) -> (Mat, Vec<usize>) {
        let centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (k, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..30 {
                rows.push(vec![rng.normal_with(cx, 0.5), rng.normal_with(cy, 0.5)]);
                labels.push(k);
            }
        }
        (Mat::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn recovers_separated_blobs() {
        let mut rng = Rng64::seed_from_u64(1);
        let (x, labels) = blobs(&mut rng);
        let res = kmeans(&x, 3, 100, &mut rng, &NOOP).unwrap();
        // Every blob must map to one pure cluster.
        for chunk in 0..3 {
            let first = res.assignments[chunk * 30];
            for i in 0..30 {
                assert_eq!(res.assignments[chunk * 30 + i], first);
            }
        }
        // And different blobs to different clusters.
        let a = res.assignments[0];
        let b = res.assignments[30];
        let c = res.assignments[60];
        assert!(a != b && b != c && a != c);
        let _ = labels;
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let mut rng = Rng64::seed_from_u64(2);
        let (x, _) = blobs(&mut rng);
        let r1 = kmeans(&x, 1, 50, &mut rng, &NOOP).unwrap();
        let r3 = kmeans(&x, 3, 50, &mut rng, &NOOP).unwrap();
        assert!(r3.inertia < r1.inertia);
    }

    #[test]
    fn k_equals_n_zero_inertia() {
        let x = Mat::from_rows(&[vec![0.0, 0.0], vec![5.0, 5.0], vec![9.0, 1.0]]).unwrap();
        let mut rng = Rng64::seed_from_u64(3);
        let res = kmeans(&x, 3, 50, &mut rng, &NOOP).unwrap();
        assert!(res.inertia < 1e-12);
        let mut sorted = res.assignments.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn rejects_bad_k() {
        let x = Mat::zeros(2, 2);
        let mut rng = Rng64::seed_from_u64(4);
        assert!(kmeans(&x, 0, 10, &mut rng, &NOOP).is_err());
        assert!(kmeans(&x, 3, 10, &mut rng, &NOOP).is_err());
    }

    #[test]
    fn all_clusters_non_empty() {
        let mut rng = Rng64::seed_from_u64(5);
        let (x, _) = blobs(&mut rng);
        let res = kmeans(&x, 5, 100, &mut rng, &NOOP).unwrap();
        let mut counts = vec![0usize; 5];
        for &a in &res.assignments {
            counts[a] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    /// Regression for the empty-cluster re-seed: the farthest-point draw is
    /// taken from a snapshot *before* any centroid update, so the selection
    /// cannot depend on how the assignment step was chunked. Running k=5 on
    /// 3 blobs across many seeds exercises the re-seed path repeatedly; the
    /// result must be bit-identical at every thread count.
    #[test]
    fn reseed_is_thread_count_invariant() {
        for seed in 0..20 {
            let mut rng = Rng64::seed_from_u64(seed);
            let (x, _) = blobs(&mut rng);
            let reference = rgae_par::with_threads(1, || {
                let mut r = Rng64::seed_from_u64(seed + 100);
                kmeans(&x, 5, 100, &mut r, &NOOP).unwrap()
            });
            let mut counts = vec![0usize; 5];
            for &a in &reference.assignments {
                counts[a] += 1;
            }
            assert!(counts.iter().all(|&c| c > 0), "empty cluster: {counts:?}");
            for t in [2, 3, 8] {
                let got = rgae_par::with_threads(t, || {
                    let mut r = Rng64::seed_from_u64(seed + 100);
                    kmeans(&x, 5, 100, &mut r, &NOOP).unwrap()
                });
                assert_eq!(got.assignments, reference.assignments, "threads={t}");
                assert_eq!(
                    got.centroids.as_slice(),
                    reference.centroids.as_slice(),
                    "threads={t}"
                );
                assert_eq!(
                    got.inertia.to_bits(),
                    reference.inertia.to_bits(),
                    "threads={t}"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng1 = Rng64::seed_from_u64(6);
        let (x, _) = blobs(&mut rng1);
        let mut ra = Rng64::seed_from_u64(7);
        let mut rb = Rng64::seed_from_u64(7);
        let r1 = kmeans(&x, 3, 100, &mut ra, &NOOP).unwrap();
        let r2 = kmeans(&x, 3, 100, &mut rb, &NOOP).unwrap();
        assert_eq!(r1.assignments, r2.assignments);
    }
}
