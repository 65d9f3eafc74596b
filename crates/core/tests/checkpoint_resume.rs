//! Crash-safety contract of the checkpoint layer: a run killed right after
//! any save and resumed from disk finishes **bit-identically** to an
//! uninterrupted run (losses, Ω trajectory, metrics, snapshots), at any
//! thread count; corrupt checkpoints never crash — the loader falls back to
//! the previous good generation or starts fresh.

mod common;

use common::{assert_r_reports_eq, temp_dir, test_graph};
use rgae_core::{train_plain, train_plain_ckpt, CheckpointOpts, Error, RConfig, RReport, RTrainer};
use rgae_linalg::Rng64;
use rgae_models::{ComposedModel, GaeModel, TrainData};
use rgae_obs::{Event, MemorySink, Recorder, NOOP};

/// Short run with a deterministic save schedule: no early convergence
/// (min = max), sparse eval epochs so `Option` fields round-trip both ways,
/// and one in-range + one past-the-end snapshot request.
fn ckpt_cfg(threads: Option<usize>) -> RConfig {
    let mut cfg = RConfig::for_dataset("cora-like").quick();
    cfg.pretrain_epochs = 20;
    cfg.max_epochs = 30;
    cfg.min_epochs = 30;
    cfg.eval_every = 5;
    cfg.snapshot_epochs = vec![15, 99];
    cfg.threads = threads;
    cfg
}

const SEED: u64 = 17;

fn run_r(
    cfg: &RConfig,
    ckpt: Option<CheckpointOpts>,
    rec: &dyn Recorder,
) -> Result<RReport, Error> {
    let graph = test_graph(SEED);
    let data = TrainData::from_graph(&graph);
    let mut rng = Rng64::seed_from_u64(SEED);
    let mut model = ComposedModel::dgae(data.num_features(), graph.num_classes(), &mut rng);
    let mut trainer = RTrainer::with_recorder(cfg.clone(), rec);
    if let Some(opts) = ckpt {
        trainer = trainer.with_checkpoints(opts);
    }
    trainer.train(&mut model, &graph, &mut rng)
}

fn run_plain(cfg: &RConfig, ckpt: Option<&CheckpointOpts>) -> Result<RReport, Error> {
    let graph = test_graph(SEED);
    let data = TrainData::from_graph(&graph);
    let mut rng = Rng64::seed_from_u64(SEED);
    let mut model = ComposedModel::dgae(data.num_features(), graph.num_classes(), &mut rng);
    train_plain_ckpt(&mut model, &graph, cfg, &mut rng, &NOOP, ckpt)
}

/// Kill the R run right after its Nth checkpoint save — for every reachable
/// N, covering mid-pretraining, the phase boundary, mid-clustering, and the
/// end-of-run save — then resume from disk and demand a bit-identical
/// report.
#[test]
fn r_halt_and_resume_matches_uninterrupted() {
    let cfg = ckpt_cfg(Some(1));
    let reference = run_r(&cfg, None, &NOOP).unwrap();
    let mut halts = 0;
    for n in 1..=6 {
        let dir = temp_dir(&format!("r-halt-{n}"));
        let crashed = run_r(
            &cfg,
            Some(CheckpointOpts::new(&dir).every(7).halt_after_saves(n)),
            &NOOP,
        );
        match crashed {
            Err(Error::Halted) => {
                halts += 1;
                let resumed = run_r(
                    &cfg,
                    Some(CheckpointOpts::new(&dir).every(7).resume(true)),
                    &NOOP,
                )
                .unwrap();
                assert_r_reports_eq(&reference, &resumed, &format!("halt after save {n}"));
            }
            Ok(report) => {
                // N exceeded the save count of every phase: the run simply
                // finished, and must still match the checkpoint-free run.
                assert_r_reports_eq(&reference, &report, &format!("no halt at {n}"));
            }
            Err(e) => panic!("unexpected error at halt {n}: {e}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The schedule must actually have exercised crash points in both phases
    // (pretraining saves at 7/14 + boundary; clustering at 7/14/21/28 + end).
    assert!(halts >= 5, "only {halts} halt points reached");
}

/// Resuming `RTrainer::pretrain` from its phase-boundary checkpoint hands
/// back the pretrained model (encoder and clustering head) and the RNG as
/// they stood after head initialisation, without re-running the phase.
#[test]
fn pretrain_resume_imports_the_finished_pretrain() {
    let cfg = ckpt_cfg(Some(1));
    let graph = test_graph(SEED);
    let data = TrainData::from_graph(&graph);
    let dir = temp_dir("pretrain-resume");
    let pretrain = |resume: bool| {
        let mut rng = Rng64::seed_from_u64(SEED);
        let mut model = ComposedModel::dgae(data.num_features(), graph.num_classes(), &mut rng);
        RTrainer::new(cfg.clone())
            .with_checkpoints(CheckpointOpts::new(&dir).every(7).resume(resume))
            .pretrain(&mut model, &data, &mut rng)
            .unwrap();
        (model, rng)
    };
    let (first, first_rng) = pretrain(false);
    let (resumed, resumed_rng) = pretrain(true);
    let _ = std::fs::remove_dir_all(&dir);
    let bits =
        |m: &rgae_linalg::Mat| -> Vec<u64> { m.as_slice().iter().map(|x| x.to_bits()).collect() };
    assert_eq!(
        bits(&first.embed(&data)),
        bits(&resumed.embed(&data)),
        "embeddings"
    );
    let heads = [&first, &resumed].map(|m| m.soft_assignments(&data).unwrap().unwrap());
    assert_eq!(bits(&heads[0]), bits(&heads[1]), "clustering head");
    assert_eq!(first_rng.state(), resumed_rng.state(), "RNG state");
}

/// The same contract holds on the parallel path.
#[test]
fn r_halt_and_resume_matches_at_four_threads() {
    let cfg = ckpt_cfg(Some(4));
    let reference = run_r(&cfg, None, &NOOP).unwrap();
    for n in [2, 4] {
        let dir = temp_dir(&format!("r-halt4-{n}"));
        let crashed = run_r(
            &cfg,
            Some(CheckpointOpts::new(&dir).every(7).halt_after_saves(n)),
            &NOOP,
        );
        assert!(matches!(crashed, Err(Error::Halted)));
        let resumed = run_r(
            &cfg,
            Some(CheckpointOpts::new(&dir).every(7).resume(true)),
            &NOOP,
        )
        .unwrap();
        assert_r_reports_eq(&reference, &resumed, &format!("threads=4 halt {n}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Serial and 4-thread references agree bit-for-bit (the rgae-par
/// determinism contract extends through the checkpoint layer).
#[test]
fn r_reference_is_thread_invariant() {
    let a = run_r(&ckpt_cfg(Some(1)), None, &NOOP).unwrap();
    let b = run_r(&ckpt_cfg(Some(4)), None, &NOOP).unwrap();
    assert_r_reports_eq(&a, &b, "threads 1 vs 4");
}

/// Kill/resume equivalence for the plain trainer (one saver spans both
/// phases there, so N walks pretraining, boundary, clustering, and end
/// saves in one sequence).
#[test]
fn plain_halt_and_resume_matches_uninterrupted() {
    let cfg = ckpt_cfg(Some(1));
    let reference = {
        let graph = test_graph(SEED);
        let data = TrainData::from_graph(&graph);
        let mut rng = Rng64::seed_from_u64(SEED);
        let mut model = ComposedModel::dgae(data.num_features(), graph.num_classes(), &mut rng);
        train_plain(&mut model, &graph, &cfg, &mut rng).unwrap()
    };
    let mut halts = 0;
    for n in 1..=9 {
        let dir = temp_dir(&format!("plain-halt-{n}"));
        let crashed = run_plain(
            &cfg,
            Some(&CheckpointOpts::new(&dir).every(7).halt_after_saves(n)),
        );
        match crashed {
            Err(Error::Halted) => {
                halts += 1;
                let resumed =
                    run_plain(&cfg, Some(&CheckpointOpts::new(&dir).every(7).resume(true)))
                        .unwrap();
                assert_r_reports_eq(&reference, &resumed, &format!("plain halt {n}"));
            }
            Ok(report) => {
                assert_r_reports_eq(&reference, &report, &format!("plain no halt {n}"));
            }
            Err(e) => panic!("unexpected error at halt {n}: {e}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(halts >= 7, "only {halts} halt points reached");
}

/// A resumed run's log replays the pre-crash epoch events, so the JSONL
/// trace of a resumed run is indistinguishable in structure from an
/// uninterrupted one (plus the checkpoint bookkeeping events).
#[test]
fn resume_replays_full_event_log() {
    let cfg = ckpt_cfg(Some(1));
    let dir = temp_dir("r-events");
    let crashed = run_r(
        &cfg,
        Some(CheckpointOpts::new(&dir).every(7).halt_after_saves(4)),
        &NOOP,
    );
    assert!(matches!(crashed, Err(Error::Halted)));

    let sink = MemorySink::new();
    let resumed = run_r(
        &cfg,
        Some(CheckpointOpts::new(&dir).every(7).resume(true)),
        &sink,
    )
    .unwrap();

    let epoch_events = sink.of_kind("epoch");
    assert_eq!(
        epoch_events.len(),
        resumed.epochs.len(),
        "replayed + live epoch events must cover the whole run"
    );
    let ckpt_events = sink.of_kind("checkpoint");
    let loaded: Vec<&Event> = ckpt_events
        .iter()
        .filter(|e| matches!(e, Event::Checkpoint { action, .. } if action == "loaded"))
        .collect();
    assert!(!loaded.is_empty(), "resume must log a 'loaded' event");
    assert!(
        ckpt_events
            .iter()
            .any(|e| matches!(e, Event::Checkpoint { action, .. } if action == "saved")),
        "the resumed run keeps checkpointing"
    );
    assert_eq!(sink.of_kind("run_end").len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

fn corrupt_file(path: &std::path::Path, mode: &str) {
    let mut bytes = std::fs::read(path).unwrap();
    match mode {
        "flip" => {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
        }
        "truncate" => bytes.truncate(bytes.len() / 3),
        _ => unreachable!(),
    }
    std::fs::write(path, bytes).unwrap();
}

/// CRC catches a bit flip (or truncation) in the newest checkpoint; the
/// loader falls back to the previous generation and the run still finishes
/// bit-identically. Never a crash.
#[test]
fn corrupt_latest_falls_back_to_previous() {
    let cfg = ckpt_cfg(Some(1));
    let reference = run_r(&cfg, None, &NOOP).unwrap();
    for mode in ["flip", "truncate"] {
        let dir = temp_dir(&format!("r-corrupt-{mode}"));
        // Crash mid-clustering so both generations exist on disk.
        let crashed = run_r(
            &cfg,
            Some(CheckpointOpts::new(&dir).every(7).halt_after_saves(4)),
            &NOOP,
        );
        assert!(matches!(crashed, Err(Error::Halted)));
        corrupt_file(&dir.join("state.rgck"), mode);

        let sink = MemorySink::new();
        let resumed = run_r(
            &cfg,
            Some(CheckpointOpts::new(&dir).every(7).resume(true)),
            &sink,
        )
        .unwrap();
        assert_r_reports_eq(&reference, &resumed, &format!("corrupt {mode}"));

        let ckpt_events = sink.of_kind("checkpoint");
        assert!(
            ckpt_events
                .iter()
                .any(|e| matches!(e, Event::Checkpoint { action, .. } if action == "corrupt")),
            "{mode}: corruption must be surfaced in the run log"
        );
        assert!(
            ckpt_events
                .iter()
                .any(|e| matches!(e, Event::Checkpoint { action, .. } if action == "fallback")),
            "{mode}: fallback load must be surfaced in the run log"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// With every generation corrupt the trainer silently starts fresh — the
/// result still matches the reference, just without the saved time.
#[test]
fn both_checkpoints_corrupt_starts_fresh() {
    let cfg = ckpt_cfg(Some(1));
    let reference = run_r(&cfg, None, &NOOP).unwrap();
    let dir = temp_dir("r-corrupt-both");
    let crashed = run_r(
        &cfg,
        Some(CheckpointOpts::new(&dir).every(7).halt_after_saves(4)),
        &NOOP,
    );
    assert!(matches!(crashed, Err(Error::Halted)));
    corrupt_file(&dir.join("state.rgck"), "flip");
    corrupt_file(&dir.join("state.prev.rgck"), "truncate");

    let sink = MemorySink::new();
    let resumed = run_r(
        &cfg,
        Some(CheckpointOpts::new(&dir).every(7).resume(true)),
        &sink,
    )
    .unwrap();
    assert_r_reports_eq(&reference, &resumed, "both corrupt");
    // Both generations are rejected up front. (Later "loaded" events are
    // fine — the fresh pretraining pass writes new checkpoints, and the
    // clustering phase picks up its phase-boundary save.)
    let ckpt_events = sink.of_kind("checkpoint");
    let leading_corrupt = ckpt_events
        .iter()
        .take_while(|e| matches!(e, Event::Checkpoint { action, .. } if action == "corrupt"))
        .count();
    assert!(
        leading_corrupt >= 2,
        "both generations must be rejected before anything else"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming an already-finished run fast-forwards: the stored report comes
/// back instantly (and bit-identically), with the full event log replayed.
#[test]
fn resume_of_finished_run_fast_forwards() {
    let cfg = ckpt_cfg(Some(1));
    let reference = run_r(&cfg, None, &NOOP).unwrap();
    let dir = temp_dir("r-done");
    let completed = run_r(&cfg, Some(CheckpointOpts::new(&dir).every(7)), &NOOP).unwrap();
    assert_r_reports_eq(&reference, &completed, "checkpointing changes nothing");

    let sink = MemorySink::new();
    let replayed = run_r(
        &cfg,
        Some(CheckpointOpts::new(&dir).every(7).resume(true)),
        &sink,
    )
    .unwrap();
    assert_r_reports_eq(&reference, &replayed, "done replay");
    assert_eq!(sink.of_kind("epoch").len(), replayed.epochs.len());
    assert_eq!(sink.of_kind("run_end").len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fused decoder's tile size is a pure memory knob: a run checkpointed
/// under one tile setting and resumed under a different one still finishes
/// bit-identically to the uninterrupted reference. (Every train step here
/// goes through `gram_bce_logits_sparse`, so this is the kill/resume
/// contract stated for the fused path specifically.)
#[test]
fn resume_is_tile_invariant_through_fused_decoder() {
    let mut cfg = ckpt_cfg(Some(1));
    cfg.decoder_tile = Some(64);
    let reference = run_r(&cfg, None, &NOOP).unwrap();
    let dir = temp_dir("r-tile");
    let crashed = run_r(
        &cfg,
        Some(CheckpointOpts::new(&dir).every(7).halt_after_saves(3)),
        &NOOP,
    );
    assert!(matches!(crashed, Err(Error::Halted)));
    let mut resume_cfg = cfg.clone();
    resume_cfg.decoder_tile = Some(512);
    let resumed = run_r(
        &resume_cfg,
        Some(CheckpointOpts::new(&dir).every(7).resume(true)),
        &NOOP,
    )
    .unwrap();
    assert_r_reports_eq(&reference, &resumed, "tile 64 → 512 resume");
    let _ = std::fs::remove_dir_all(&dir);
    rgae_linalg::set_decoder_tile(None);
}

/// The bookkeeping bugfixes: the final (or convergence) epoch always
/// carries metrics whatever `eval_every` says; intermediate non-eval epochs
/// skip the O(|E|) graph scans; the end-of-run snapshot is labelled with
/// the epoch count actually run.
#[test]
fn final_epoch_is_always_evaluated_and_snapshot_labelled() {
    let mut cfg = ckpt_cfg(Some(1));
    cfg.eval_every = 7;
    let report = run_r(&cfg, None, &NOOP).unwrap();
    let last = report.epochs.last().unwrap();
    assert_eq!(last.epoch, 29);
    assert!(last.metrics.is_some(), "final epoch must be evaluated");
    assert!(last.graph_stats.is_some());
    // Satellite: non-eval epochs carry no graph scans at all.
    let skipped = report
        .epochs
        .iter()
        .filter(|e| !e.epoch.is_multiple_of(7) && e.epoch != 29)
        .all(|e| e.metrics.is_none() && e.graph_stats.is_none() && e.added_links.is_none());
    assert!(skipped, "non-eval epochs must skip metrics and graph scans");
    // The past-the-end snapshot request (99) collapses onto the real end.
    assert_eq!(
        report.snapshots.iter().map(|s| s.0).collect::<Vec<_>>(),
        vec![15, 30]
    );
}

/// When the run converges early, the convergence epoch is the last record,
/// it is fully evaluated, and the end snapshot is labelled with the actual
/// final epoch — not `max_epochs`.
#[test]
fn convergence_epoch_is_evaluated_and_labelled() {
    let mut cfg = ckpt_cfg(Some(1));
    cfg.min_epochs = 5;
    cfg.max_epochs = 60;
    cfg.eval_every = 50; // only epoch 0 would be evaluated without the fix
    cfg.snapshot_epochs = vec![99];
    let report = run_r(&cfg, None, &NOOP).unwrap();
    let last = report.epochs.last().unwrap();
    assert!(
        last.metrics.is_some(),
        "last epoch {} must be evaluated",
        last.epoch
    );
    if let Some(c) = report.converged_at {
        assert_eq!(last.epoch, c, "convergence ends the run");
        assert!(c + 1 < 60, "test graph should converge early");
        assert_eq!(
            report.snapshots.iter().map(|s| s.0).collect::<Vec<_>>(),
            vec![c + 1],
            "end snapshot labelled with the actual epoch count"
        );
    }
    // And the checkpointed + resumed path preserves all of this.
    let dir = temp_dir("r-converge");
    let crashed = run_r(
        &cfg,
        Some(CheckpointOpts::new(&dir).every(7).halt_after_saves(4)),
        &NOOP,
    );
    if matches!(crashed, Err(Error::Halted)) {
        let resumed = run_r(
            &cfg,
            Some(CheckpointOpts::new(&dir).every(7).resume(true)),
            &NOOP,
        )
        .unwrap();
        assert_r_reports_eq(&report, &resumed, "converged resume");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
