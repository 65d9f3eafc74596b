//! Fast decoder numerics: the SIMD entries equal the portable entry bit for
//! bit, the fast kernel's bits are invariant to thread count and tile size,
//! and fast − exact stays within [`rgae_linalg::fast_exact_bound`], the
//! bound derived on [`rgae_linalg::gram_bce_fused`] from the error analysis
//! in [`rgae_linalg::numerics`].

use rgae_linalg::numerics::{
    softplus_sigmoid_batch, softplus_sigmoid_batch_with, softplus_sigmoid_fast, SimdLevel,
};
use rgae_linalg::{
    fast_exact_bound, gram_bce_fused, set_decoder_tile, standard_normal, Csr, DecoderNumerics, Mat,
    Rng64,
};
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Logits covering every regime of the fast path: signed zeros, the ±30
/// libm truncation points, the `exp` clamp and subnormal range (|x| > 708),
/// infinities, NaN and a spread of ordinary values.
fn edge_inputs() -> Vec<f64> {
    let mut xs = vec![
        0.0,
        -0.0,
        30.0,
        -30.0,
        29.999999999999996,
        -30.000000000000004,
        708.0,
        -708.0,
        708.5,
        -709.0,
        720.0,
        -730.0,
        744.0,
        -745.0,
        -745.2,
        746.0,
        -746.0,
        -800.0,
        1e300,
        -1e300,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        0.5,
        -0.5,
        1.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    let mut rng = Rng64::seed_from_u64(11);
    for _ in 0..200 {
        xs.push(rng.normal() * 10f64.powi(rng.index(5) as i32 - 1));
    }
    xs
}

#[test]
fn edge_inputs_reach_subnormal_results() {
    let subnormal = edge_inputs()
        .into_iter()
        .map(|x| softplus_sigmoid_fast(x).0)
        .any(|sp| sp != 0.0 && sp.abs() < f64::MIN_POSITIVE);
    assert!(subnormal, "no input produced a subnormal softplus");
}

#[test]
fn simd_entries_match_portable_bitwise() {
    let xs = edge_inputs();
    let levels = SimdLevel::available();
    assert_eq!(levels[0], SimdLevel::Portable);
    // Ragged lengths and unaligned starts exercise every remainder loop.
    for start in 0..4 {
        for len in (0..40).chain([63, 64, 65, 127, 200]) {
            let end = (start + len).min(xs.len());
            let x = &xs[start..end];
            let (mut sp0, mut sig0) = (vec![0.0; x.len()], vec![0.0; x.len()]);
            softplus_sigmoid_batch_with(SimdLevel::Portable, x, &mut sp0, &mut sig0);
            for (i, &xi) in x.iter().enumerate() {
                let (sp, sig) = softplus_sigmoid_fast(xi);
                assert_eq!(sp0[i].to_bits(), sp.to_bits(), "scalar softplus({xi})");
                assert_eq!(sig0[i].to_bits(), sig.to_bits(), "scalar σ({xi})");
            }
            for &level in &levels[1..] {
                let (mut sp, mut sig) = (vec![0.0; x.len()], vec![0.0; x.len()]);
                softplus_sigmoid_batch_with(level, x, &mut sp, &mut sig);
                assert_eq!(bits(&sp), bits(&sp0), "{level:?} softplus, len {len}");
                assert_eq!(bits(&sig), bits(&sig0), "{level:?} σ, len {len}");
            }
            let (mut sp, mut sig) = (vec![0.0; x.len()], vec![0.0; x.len()]);
            softplus_sigmoid_batch(x, &mut sp, &mut sig);
            assert_eq!(bits(&sp), bits(&sp0), "dispatched softplus, len {len}");
            assert_eq!(bits(&sig), bits(&sig0), "dispatched σ, len {len}");
        }
    }
}

/// A decoder instance: latent rows scaled by `scale` (large scales push
/// logits past ±30) and a target with weights in [0.5, 2].
fn instance(seed: u64, n: usize, d: usize, scale: f64) -> (Mat, Csr) {
    let mut rng = Rng64::seed_from_u64(seed);
    let z = standard_normal(n, d, &mut rng).scale(scale);
    let mut triplets = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if rng.bernoulli(0.1) {
                triplets.push((i, j, rng.uniform_in(0.5, 2.0)));
            }
        }
    }
    (z, Csr::from_triplets(n, n, &triplets).unwrap())
}

fn fast(z: &Mat, t: &Csr, grad: bool) -> (u64, Vec<u64>) {
    let n = z.rows() as f64;
    let gs = grad.then_some(0.7 / (n * n));
    let out = gram_bce_fused(z, t, 3.0, 0.7, gs, DecoderNumerics::Fast).unwrap();
    (
        out.loss.to_bits(),
        out.dz.map(|m| bits(m.as_slice())).unwrap_or_default(),
    )
}

#[test]
fn fast_kernel_bits_invariant_to_threads() {
    for &(n, d) in &[(1usize, 1usize), (7, 3), (70, 4), (257, 5), (600, 3)] {
        let (z, t) = instance(n as u64, n, d, 1.5);
        for grad in [true, false] {
            let reference = rgae_par::with_threads(1, || fast(&z, &t, grad));
            for threads in &THREADS[1..] {
                let got = rgae_par::with_threads(*threads, || fast(&z, &t, grad));
                assert_eq!(got, reference, "n={n} grad={grad} threads={threads}");
            }
        }
    }
}

#[test]
fn fast_kernel_bits_invariant_to_tile_size() {
    let (z, t) = instance(42, 530, 4, 1.5);
    let reference = fast(&z, &t, true);
    for tile in [1, 256, 300, 512, 100_000] {
        set_decoder_tile(Some(tile));
        let got = fast(&z, &t, true);
        set_decoder_tile(None);
        assert_eq!(got, reference, "tile={tile}");
    }
}

#[test]
fn fast_loss_only_pass_matches_gradient_pass_loss() {
    for &(n, d) in &[(5usize, 2usize), (300, 4)] {
        let (z, t) = instance(5 + n as u64, n, d, 2.0);
        assert_eq!(fast(&z, &t, false).0, fast(&z, &t, true).0, "n={n}");
    }
}

/// Covers the O(u²) terms the first-order analysis drops.
const SECOND_ORDER_SLACK: f64 = 1.0 + 1e-9;

#[test]
fn fast_vs_exact_within_error_bound() {
    let cases = [
        (1usize, 1usize, 1.0),
        (5, 3, 1.0),
        (17, 4, 2.0),
        (64, 8, 1.0),
        (64, 8, 4.0),
        (300, 5, 1.5),
    ];
    let (pw, norm) = (3.5, 0.62);
    let mut past_30 = false;
    for (ci, &(n, d, scale)) in cases.iter().enumerate() {
        let (z, t) = instance(100 + ci as u64, n, d, scale);
        let gs = Some(norm / (n * n) as f64);
        let f = gram_bce_fused(&z, &t, pw, norm, gs, DecoderNumerics::Fast).unwrap();
        let e = gram_bce_fused(&z, &t, pw, norm, gs, DecoderNumerics::Exact).unwrap();
        let bound = fast_exact_bound(&z, &t, pw, norm, e.loss);
        let (loss_bound, dz_bound) = (bound.loss, bound.dz.as_slice());
        assert!(
            (f.loss - e.loss).abs() <= loss_bound * SECOND_ORDER_SLACK,
            "n={n}: loss {} vs {} exceeds {loss_bound:e}",
            f.loss,
            e.loss
        );
        let (fd, ed) = (f.dz.unwrap(), e.dz.unwrap());
        for (idx, ((a, b), bound)) in fd
            .as_slice()
            .iter()
            .zip(ed.as_slice())
            .zip(dz_bound)
            .enumerate()
        {
            assert!(
                (a - b).abs() <= bound * SECOND_ORDER_SLACK,
                "n={n} dz[{idx}]: {a} vs {b} exceeds {bound:e}"
            );
        }
        past_30 |= z.gram().as_slice().iter().any(|x| x.abs() > 30.0);
    }
    assert!(past_30, "no case reached the ±30 truncation regime");
}
