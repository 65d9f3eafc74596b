//! Kernel benches: the dense/sparse primitives every training step is made
//! of — gemm, sparse×dense, the Gram decoder, and the fused weighted BCE.

use std::rc::Rc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rgae_autodiff::{reference, Graph};
use rgae_linalg::{Csr, DecoderNumerics, Rng64};

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(30);
    let mut rng = Rng64::seed_from_u64(1);
    for n in [128usize, 256, 512] {
        let a = rgae_linalg::standard_normal(n, n, &mut rng);
        let b = rgae_linalg::standard_normal(n, 64, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| {
                std::hint::black_box(&a)
                    .matmul(std::hint::black_box(&b))
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_spmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm");
    group.sample_size(30);
    let mut rng = Rng64::seed_from_u64(2);
    for n in [500usize, 1000, 2000] {
        let mut edges = Vec::new();
        for _ in 0..4 * n {
            edges.push((rng.index(n), rng.index(n)));
        }
        let a = Csr::adjacency_from_edges(n, &edges)
            .unwrap()
            .gcn_normalized()
            .unwrap();
        let x = rgae_linalg::standard_normal(n, 64, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| {
                std::hint::black_box(&a)
                    .spmm(std::hint::black_box(&x))
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_gram_decoder(c: &mut Criterion) {
    let mut group = c.benchmark_group("gram_decoder");
    group.sample_size(20);
    let mut rng = Rng64::seed_from_u64(3);
    for n in [250usize, 500, 1000] {
        let z = rgae_linalg::standard_normal(n, 16, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| std::hint::black_box(&z).gram())
        });
    }
    group.finish();
}

fn bench_bce_forward_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("bce_forward_backward");
    group.sample_size(20);
    let mut rng = Rng64::seed_from_u64(4);
    for n in [250usize, 500] {
        let z = rgae_linalg::standard_normal(n, 16, &mut rng);
        let mut edges = Vec::new();
        for _ in 0..4 * n {
            edges.push((rng.index(n), rng.index(n)));
        }
        let t = Rc::new(Csr::adjacency_from_edges(n, &edges).unwrap());
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| {
                let mut g = Graph::new();
                let zv = g.leaf(z.clone());
                let s = reference::gram(&mut g, zv);
                let loss = reference::bce_logits_sparse(&mut g, s, &t, 10.0, 0.5).unwrap();
                g.backward(loss).unwrap();
                g.grad(zv).unwrap().frob_norm()
            })
        });
    }
    group.finish();
}

fn bench_fused_decoder(c: &mut Criterion) {
    // Fused tiled gram+BCE (loss + dZ in one pass, O(B·N) memory) against
    // the legacy three-pass chain benched above.
    let mut group = c.benchmark_group("fused_gram_bce");
    group.sample_size(20);
    let mut rng = Rng64::seed_from_u64(4);
    for n in [250usize, 500] {
        let z = rgae_linalg::standard_normal(n, 16, &mut rng);
        let mut edges = Vec::new();
        for _ in 0..4 * n {
            edges.push((rng.index(n), rng.index(n)));
        }
        let t = Rc::new(Csr::adjacency_from_edges(n, &edges).unwrap());
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| {
                let mut g = Graph::new();
                let zv = g.leaf(z.clone());
                let loss = g
                    .gram_bce_logits_sparse(zv, &t, 10.0, 0.5, DecoderNumerics::Fast)
                    .unwrap();
                g.backward(loss).unwrap();
                g.grad(zv).unwrap().frob_norm()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_spmm,
    bench_gram_decoder,
    bench_bce_forward_backward,
    bench_fused_decoder
);
criterion_main!(benches);
