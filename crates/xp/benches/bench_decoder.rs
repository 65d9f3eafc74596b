//! Decoder bench: times the legacy three-pass chain (`mat_gram` →
//! `bce_sparse_fwd` → `bce_sparse_bwd` → gram-backward `mat_matmul`) and the
//! tiled one-pass gram+BCE kernel under exact and fast numerics on the
//! cora-like preset. It asserts that exact equals legacy bit for bit and
//! that fast − exact stays within `rgae_linalg::fast_exact_bound`, and
//! writes `BENCH_decoder.json` at the workspace root (kernel seconds plus
//! estimated peak decoder bytes for each path).
//!
//! Run with `cargo bench -p rgae-xp --bench bench_decoder`. Knobs:
//! `BENCH_DECODER_SCALE` (cora-like size multiplier, default 1.0) and
//! `RGAE_DECODER_TILE` (fused row-tile height).

use std::rc::Rc;
use std::time::Instant;

use rgae_autodiff::Graph;
use rgae_datasets::presets::cora_like;
use rgae_linalg::{Csr, DecoderNumerics, Mat, Rng64};
use rgae_models::TrainData;
use rgae_obs::Json;

const WARMUP_ROUNDS: usize = 2;
const TIMED_ROUNDS: usize = 10;
const LATENT_DIM: usize = 16;

/// The kernels the legacy path spends its decoder time in. `Mat::add` and
/// `Mat::transpose` in the gram backward are untimed, so the legacy total
/// is a slight *underestimate* — the honest direction for a speedup claim.
const LEGACY_KERNELS: [&str; 4] = ["mat_gram", "bce_sparse_fwd", "bce_sparse_bwd", "mat_matmul"];

fn legacy_round(z: &Mat, t: &Rc<Csr>, pw: f64, norm: f64) -> (u64, Vec<u64>) {
    let mut g = Graph::new();
    let zv = g.leaf(z.clone());
    let s = g.gram(zv);
    let loss = g.bce_logits_sparse(s, t, pw, norm).unwrap();
    g.backward(loss).unwrap();
    (
        g.scalar(loss).to_bits(),
        g.grad(zv)
            .unwrap()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
    )
}

fn fused_round(
    z: &Mat,
    t: &Rc<Csr>,
    pw: f64,
    norm: f64,
    numerics: DecoderNumerics,
) -> (u64, Vec<u64>) {
    let mut g = Graph::new();
    let zv = g.leaf(z.clone());
    let loss = g.gram_bce_logits_sparse(zv, t, pw, norm, numerics).unwrap();
    g.backward(loss).unwrap();
    (
        g.scalar(loss).to_bits(),
        g.grad(zv)
            .unwrap()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
    )
}

/// Largest `|fast − exact| / bound` over the loss and every dZ entry.
fn bound_ratio(
    fast: &(u64, Vec<u64>),
    exact: &(u64, Vec<u64>),
    bound: &rgae_linalg::FastExactBound,
) -> f64 {
    let gap = |a: u64, b: u64| (f64::from_bits(a) - f64::from_bits(b)).abs();
    let loss = gap(fast.0, exact.0) / bound.loss;
    fast.1
        .iter()
        .zip(&exact.1)
        .zip(bound.dz.as_slice())
        .map(|((&a, &b), &bd)| gap(a, b) / bd)
        .fold(loss, f64::max)
}

fn path(wall: f64, kernel: f64, bytes: usize) -> Json {
    Json::Obj(vec![
        ("wall_seconds_per_round".into(), Json::Num(wall)),
        ("kernel_seconds_per_round".into(), Json::Num(kernel)),
        ("peak_decoder_bytes".into(), Json::Int(bytes as i64)),
    ])
}

/// Run `round` TIMED_ROUNDS times; return (wall seconds/round, kernel table).
fn timed(round: impl Fn() -> (u64, Vec<u64>)) -> (f64, Vec<(&'static str, rgae_par::KernelStat)>) {
    for _ in 0..WARMUP_ROUNDS {
        round();
    }
    let _ = rgae_par::take_kernel_stats();
    let start = Instant::now();
    for _ in 0..TIMED_ROUNDS {
        round();
    }
    let secs = start.elapsed().as_secs_f64() / TIMED_ROUNDS as f64;
    (secs, rgae_par::take_kernel_stats())
}

fn kernel_seconds(stats: &[(&'static str, rgae_par::KernelStat)], names: &[&str]) -> f64 {
    stats
        .iter()
        .filter(|(n, _)| names.contains(n))
        .map(|(_, s)| s.seconds)
        .sum::<f64>()
        / TIMED_ROUNDS as f64
}

fn main() {
    let scale: f64 = std::env::var("BENCH_DECODER_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let graph = cora_like(scale, 1).unwrap();
    let data = TrainData::from_graph(&graph);
    let n = data.num_nodes;
    let mut rng = Rng64::seed_from_u64(7);
    let z = rgae_linalg::standard_normal(n, LATENT_DIM, &mut rng);
    let t = Rc::clone(&data.adjacency);
    let (pw, norm) = (data.pos_weight, data.norm);

    eprintln!("bench_decoder: N={n}, d={LATENT_DIM}, {TIMED_ROUNDS} rounds per path…");
    let (legacy_wall, legacy_stats) = timed(|| legacy_round(&z, &t, pw, norm));
    let exact = |z: &Mat| fused_round(z, &t, pw, norm, DecoderNumerics::Exact);
    let fast = |z: &Mat| fused_round(z, &t, pw, norm, DecoderNumerics::Fast);
    let (exact_wall, exact_stats) = timed(|| exact(&z));
    let (fast_wall, fast_stats) = timed(|| fast(&z));

    let fused_kernel = ["fused_gram_bce_fwd_bwd"];
    let legacy_secs = kernel_seconds(&legacy_stats, &LEGACY_KERNELS);
    let exact_secs = kernel_seconds(&exact_stats, &fused_kernel);
    let fast_secs = kernel_seconds(&fast_stats, &fused_kernel);

    // Peak transient decoder memory: the legacy backward holds the logits,
    // the BCE gradient, and its transpose as live N×N buffers; the fused
    // kernel holds one B×N panel plus the N×d gradient accumulator (fast
    // numerics add a 2N row scratch per sweep task).
    let legacy_bytes = 3 * n * n * 8;
    let exact_bytes = rgae_linalg::fused_panel_bytes(n) + n * LATENT_DIM * 8;
    let fast_bytes = exact_bytes + 2 * n * 8 * rgae_par::threads();

    let (legacy_out, exact_out, fast_out) = (legacy_round(&z, &t, pw, norm), exact(&z), fast(&z));
    let identical = legacy_out == exact_out;
    let exact_loss = f64::from_bits(exact_out.0);
    let bound = rgae_linalg::fast_exact_bound(&z, &t, pw, norm, exact_loss);
    let ratio = bound_ratio(&fast_out, &exact_out, &bound);
    let fast_loss_rel = (f64::from_bits(fast_out.0) - exact_loss).abs() / exact_loss.abs();

    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("bench_decoder".into())),
        (
            "dataset".into(),
            Json::Str(format!("cora-like({scale}, seed 1)")),
        ),
        ("num_nodes".into(), Json::Int(n as i64)),
        ("latent_dim".into(), Json::Int(LATENT_DIM as i64)),
        ("timed_rounds".into(), Json::Int(TIMED_ROUNDS as i64)),
        (
            "decoder_tile".into(),
            Json::Int(rgae_linalg::decoder_tile() as i64),
        ),
        (
            "simd".into(),
            Json::Str(format!(
                "{:?}",
                rgae_linalg::numerics::SimdLevel::detected()
            )),
        ),
        (
            "legacy".into(),
            path(legacy_wall, legacy_secs, legacy_bytes),
        ),
        ("exact".into(), path(exact_wall, exact_secs, exact_bytes)),
        ("fast".into(), path(fast_wall, fast_secs, fast_bytes)),
        (
            "exact_kernel_speedup".into(),
            Json::Num(legacy_secs / exact_secs),
        ),
        (
            "fast_kernel_speedup".into(),
            Json::Num(legacy_secs / fast_secs),
        ),
        (
            "fast_over_exact_speedup".into(),
            Json::Num(exact_secs / fast_secs),
        ),
        (
            "memory_ratio".into(),
            Json::Num(legacy_bytes as f64 / exact_bytes as f64),
        ),
        ("bit_identical".into(), Json::Bool(identical)),
        ("fast_loss_rel_diff".into(), Json::Num(fast_loss_rel)),
        ("fast_max_bound_ratio".into(), Json::Num(ratio)),
    ]);

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_decoder.json");
    std::fs::write(out, format!("{}\n", report.encode())).unwrap();
    println!(
        "bench_decoder: kernel seconds per round legacy {legacy_secs:.4} exact {exact_secs:.4} \
         fast {fast_secs:.4} (fast {:.2}x exact), memory {legacy_bytes} -> {exact_bytes} bytes, \
         bit_identical={identical}, fast/bound={ratio:.3e} -> {out}",
        exact_secs / fast_secs
    );
    assert!(
        identical,
        "exact fused decoder diverged from the legacy path"
    );
    assert!(
        ratio <= 1.0,
        "fast decoder left its error bound: ratio {ratio}"
    );
}
