//! Clustering-stack benches: k-means, GMM-EM, the Hungarian matcher (the
//! per-evaluation cost of the ACC metric), and the metric suite.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rgae_cluster::{accuracy, ari, hungarian, kmeans, nmi, GaussianMixture};
use rgae_linalg::{Mat, Rng64};
use rgae_obs::NOOP;

fn blobs(n_per: usize, k: usize, rng: &mut Rng64) -> (Mat, Vec<usize>) {
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for c in 0..k {
        for _ in 0..n_per {
            let mut p = vec![0.0; 16];
            p[c % 16] = 8.0;
            for v in p.iter_mut() {
                *v += rng.normal();
            }
            rows.push(p);
            labels.push(c);
        }
    }
    (Mat::from_rows(&rows).unwrap(), labels)
}

fn bench_kmeans(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans");
    group.sample_size(20);
    for n_per in [50usize, 150] {
        let mut rng = Rng64::seed_from_u64(1);
        let (x, _) = blobs(n_per, 7, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n_per * 7), &n_per, |b, _| {
            b.iter(|| {
                let mut r = Rng64::seed_from_u64(2);
                kmeans(std::hint::black_box(&x), 7, 50, &mut r, &NOOP)
                    .unwrap()
                    .inertia
            })
        });
    }
    group.finish();
}

fn bench_gmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gmm_em");
    group.sample_size(15);
    let mut rng = Rng64::seed_from_u64(3);
    let (x, _) = blobs(100, 5, &mut rng);
    group.bench_function("fit_500x16_k5", |b| {
        b.iter(|| {
            let mut r = Rng64::seed_from_u64(4);
            GaussianMixture::fit(std::hint::black_box(&x), 5, 30, &mut r, &NOOP)
                .unwrap()
                .avg_log_likelihood
        })
    });
    group.finish();
}

fn bench_hungarian(c: &mut Criterion) {
    let mut group = c.benchmark_group("hungarian");
    group.sample_size(40);
    let mut rng = Rng64::seed_from_u64(5);
    for n in [8usize, 32, 128] {
        let cost = rgae_linalg::uniform(n, n, 0.0, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| hungarian(std::hint::black_box(&cost)))
        });
    }
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics");
    group.sample_size(40);
    let mut rng = Rng64::seed_from_u64(6);
    let n = 2000;
    let truth: Vec<usize> = (0..n).map(|_| rng.index(7)).collect();
    let pred: Vec<usize> = truth
        .iter()
        .map(|&t| if rng.bernoulli(0.8) { t } else { rng.index(7) })
        .collect();
    group.bench_function("acc_nmi_ari_2000", |b| {
        b.iter(|| {
            let a = accuracy(std::hint::black_box(&pred), &truth);
            let m = nmi(&pred, &truth);
            let r = ari(&pred, &truth);
            a + m + r
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_kmeans,
    bench_gmm,
    bench_hungarian,
    bench_metrics
);
criterion_main!(benches);
