//! Thread-scaling bench for the deterministic parallel compute layer.
//!
//! Times full training epochs (reconstruction + clustering step of the
//! deterministic GAE) on the synthetic citation preset at 1 thread and at
//! `BENCH_PAR_THREADS` (default 4) threads, re-runs a short deterministic
//! training under both settings to prove the results are bit-identical, and
//! writes everything to `BENCH_par.json` at the workspace root.
//!
//! Run with `cargo bench -p rgae-xp --bench bench_par`. The numbers are
//! whatever the hardware gives: on a single-core container the speedup will
//! honestly hover around (or below) 1×, while the equality section must hold
//! everywhere.

use std::rc::Rc;
use std::time::Instant;

use rgae_core::{RConfig, RTrainer};
use rgae_datasets::presets::cora_like;
use rgae_linalg::Rng64;
use rgae_models::{ClusterStep, ComposedModel, GaeModel, StepSpec, TrainData};
use rgae_obs::Json;

const WARMUP_EPOCHS: usize = 2;
const TIMED_EPOCHS: usize = 8;
const EQUALITY_EPOCHS: usize = 4;

fn prepared() -> (TrainData, ComposedModel, Rng64) {
    let graph = cora_like(0.2, 1).unwrap();
    let data = TrainData::from_graph(&graph);
    let mut rng = Rng64::seed_from_u64(1);
    let mut model = ComposedModel::dgae(data.num_features(), graph.num_classes(), &mut rng);
    let trainer = RTrainer::new(RConfig::for_dataset("cora-like").quick());
    trainer.pretrain(&mut model, &data, &mut rng).unwrap();
    (data, model, rng)
}

fn epoch(model: &mut ComposedModel, data: &TrainData, rng: &mut Rng64) -> f64 {
    let target = model.cluster_target(data).unwrap().unwrap();
    let spec = StepSpec {
        recon_target: Some(Rc::clone(&data.adjacency)),
        gamma: 0.001,
        cluster: Some(ClusterStep {
            target,
            omega: None,
        }),
    };
    model.train_step(data, &spec, rng).unwrap()
}

/// Mean epoch seconds plus the per-kernel time table at a thread count.
fn timed_run(threads: usize) -> (f64, Vec<(&'static str, rgae_par::KernelStat)>) {
    rgae_par::with_threads(threads, || {
        let (data, mut model, mut rng) = prepared();
        for _ in 0..WARMUP_EPOCHS {
            epoch(&mut model, &data, &mut rng);
        }
        let _ = rgae_par::take_kernel_stats();
        let start = Instant::now();
        for _ in 0..TIMED_EPOCHS {
            epoch(&mut model, &data, &mut rng);
        }
        let secs = start.elapsed().as_secs_f64() / TIMED_EPOCHS as f64;
        (secs, rgae_par::take_kernel_stats())
    })
}

/// Loss bit-patterns of a short deterministic training at a thread count.
fn loss_bits(threads: usize) -> Vec<u64> {
    rgae_par::with_threads(threads, || {
        let (data, mut model, mut rng) = prepared();
        (0..EQUALITY_EPOCHS)
            .map(|_| epoch(&mut model, &data, &mut rng).to_bits())
            .collect()
    })
}

fn main() {
    let threads_hi: usize = std::env::var("BENCH_PAR_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);

    eprintln!("bench_par: timing {TIMED_EPOCHS} epochs at 1 thread…");
    let (serial_secs, serial_kernels) = timed_run(1);
    eprintln!("bench_par: timing {TIMED_EPOCHS} epochs at {threads_hi} threads…");
    let (par_secs, par_kernels) = timed_run(threads_hi);
    let speedup = serial_secs / par_secs;

    eprintln!("bench_par: checking bit-identical losses across thread counts…");
    let reference = loss_bits(1);
    let identical = [2usize, 3, threads_hi]
        .iter()
        .all(|&t| loss_bits(t) == reference);

    let kernel_obj = |stats: &[(&'static str, rgae_par::KernelStat)]| {
        Json::Obj(
            stats
                .iter()
                .map(|(name, s)| {
                    (
                        (*name).to_string(),
                        Json::Obj(vec![
                            ("calls".into(), Json::Int(s.calls as i64)),
                            ("seconds".into(), Json::Num(s.seconds)),
                        ]),
                    )
                })
                .collect(),
        )
    };
    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("bench_par".into())),
        ("dataset".into(), Json::Str("cora-like(0.2, seed 1)".into())),
        ("timed_epochs".into(), Json::Int(TIMED_EPOCHS as i64)),
        (
            "available_parallelism".into(),
            Json::Int(
                std::thread::available_parallelism()
                    .map(|n| n.get() as i64)
                    .unwrap_or(1),
            ),
        ),
        (
            "serial".into(),
            Json::Obj(vec![
                ("threads".into(), Json::Int(1)),
                ("epoch_seconds".into(), Json::Num(serial_secs)),
                ("kernels".into(), kernel_obj(&serial_kernels)),
            ]),
        ),
        (
            "parallel".into(),
            Json::Obj(vec![
                ("threads".into(), Json::Int(threads_hi as i64)),
                ("epoch_seconds".into(), Json::Num(par_secs)),
                ("kernels".into(), kernel_obj(&par_kernels)),
            ]),
        ),
        ("speedup".into(), Json::Num(speedup)),
        ("bit_identical_losses".into(), Json::Bool(identical)),
    ]);

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_par.json");
    std::fs::write(out, format!("{}\n", report.encode())).unwrap();
    println!(
        "bench_par: serial {serial_secs:.4}s/epoch, {threads_hi} threads {par_secs:.4}s/epoch, \
         speedup {speedup:.2}x, bit_identical_losses={identical} -> {out}"
    );
    assert!(identical, "parallel training diverged from serial bits");
}
