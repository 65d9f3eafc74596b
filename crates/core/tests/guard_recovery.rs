//! The rgae-guard contract on the real trainers: a fault-free guarded run is
//! **bit-identical** to an unguarded one (the monitor never touches the RNG
//! stream or the epoch loop), an injected fault mid-clustering recovers via
//! rollback to the last healthy checkpoint — visible in the run log as
//! `fault_injected → guard trip → rollback → retry` — and when retries are
//! exhausted the run still finishes, on last-good parameters, marked
//! degraded.

mod common;

use common::{assert_r_reports_eq, temp_dir, test_graph};
use rgae_core::{
    train_plain_ckpt, CheckpointOpts, Error, FaultSpec, GuardConfig, RConfig, RReport, RTrainer,
};
use rgae_linalg::Rng64;
use rgae_models::{ComposedModel, TrainData};
use rgae_obs::{Event, MemorySink, Recorder, NOOP};

/// Same deterministic schedule as the checkpoint tests: no early convergence
/// races (min = max), a mid-run snapshot, sparse evals.
fn base_cfg(threads: Option<usize>) -> RConfig {
    let mut cfg = RConfig::for_dataset("cora-like").quick();
    cfg.pretrain_epochs = 20;
    cfg.max_epochs = 30;
    cfg.min_epochs = 30;
    cfg.eval_every = 5;
    cfg.snapshot_epochs = vec![15];
    cfg.threads = threads;
    cfg
}

/// Guard with `max_retries` and a fault schedule in `RGAE_FAULT` syntax.
fn guard(faults: &str, max_retries: usize) -> GuardConfig {
    GuardConfig {
        faults: FaultSpec::parse_list(faults).unwrap(),
        max_retries,
    }
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

fn run_plain(
    cfg: &RConfig,
    ckpt: Option<&CheckpointOpts>,
    rec: &dyn Recorder,
) -> Result<RReport, Error> {
    let graph = test_graph(SEED);
    let data = TrainData::from_graph(&graph);
    let mut rng = Rng64::seed_from_u64(SEED);
    let mut model = ComposedModel::dgae(data.num_features(), graph.num_classes(), &mut rng);
    train_plain_ckpt(&mut model, &graph, cfg, &mut rng, rec, ckpt)
}

fn recovery_actions(sink: &MemorySink) -> Vec<(String, String)> {
    sink.of_kind("recovery")
        .into_iter()
        .filter_map(|e| match e {
            Event::Recovery { action, detail, .. } => Some((action, detail)),
            _ => None,
        })
        .collect()
}

fn guard_kinds(sink: &MemorySink) -> Vec<(String, String)> {
    sink.of_kind("guard")
        .into_iter()
        .filter_map(|e| match e {
            Event::Guard { kind, severity, .. } => Some((kind, severity)),
            _ => None,
        })
        .collect()
}

/// The headline differential contract: with no faults injected, turning the
/// guard layer on changes **nothing** — every loss, metric, snapshot, and
/// the refined graph are bit-identical, serial and at 4 threads, with and
/// without checkpointing (the healthy-tagging writes are result-neutral).
#[test]
fn fault_free_guarded_r_run_is_bit_identical() {
    for threads in [1, 4] {
        let cfg = base_cfg(Some(threads));
        let reference = run_r(&cfg, None, &NOOP).unwrap();
        assert!(!reference.degraded);

        let mut guarded = cfg.clone();
        guarded.guard = Some(GuardConfig::default());
        let on = run_r(&guarded, None, &NOOP).unwrap();
        assert_r_reports_eq(&reference, &on, &format!("threads={threads} no-ckpt"));

        let dir = temp_dir(&format!("diff-{threads}"));
        let on_ckpt = run_r(&guarded, Some(CheckpointOpts::new(&dir).every(7)), &NOOP).unwrap();
        assert_r_reports_eq(&reference, &on_ckpt, &format!("threads={threads} ckpt"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Same contract for the plain (non-R) trainer.
#[test]
fn fault_free_guarded_plain_run_is_bit_identical() {
    for threads in [1, 4] {
        let cfg = base_cfg(Some(threads));
        let reference = run_plain(&cfg, None, &NOOP).unwrap();
        assert!(!reference.degraded);

        let mut guarded = cfg.clone();
        guarded.guard = Some(GuardConfig::default());
        let on = run_plain(&guarded, None, &NOOP).unwrap();
        assert_r_reports_eq(&reference, &on, &format!("plain threads={threads}"));
    }
}

/// An injected NaN-gradient fault mid-clustering: the optimiser skips the
/// poisoned step, the guard trips on the skip counter, the trainer rolls
/// back to the last healthy checkpoint and retries with a halved LR — and
/// the run finishes healthy (not degraded), with the whole
/// `fault_injected → nonfinite_grad → rollback → retry` sequence on the log.
#[test]
fn nan_grad_mid_clustering_recovers_via_checkpoint_rollback() {
    let mut cfg = base_cfg(Some(1));
    cfg.guard = Some(guard("nan_grad@epoch:12", 2));
    let dir = temp_dir("nan-grad");
    let sink = MemorySink::new();
    let report = run_r(&cfg, Some(CheckpointOpts::new(&dir).every(7)), &sink).unwrap();

    assert!(!report.degraded, "one fault within budget must not degrade");
    assert_eq!(
        report.epochs.last().unwrap().epoch,
        29,
        "the retried run covers the full schedule"
    );
    let m = &report.final_metrics;
    assert!(m.acc.is_finite() && m.nmi.is_finite() && m.ari.is_finite());

    let guards = guard_kinds(&sink);
    assert!(
        guards
            .iter()
            .any(|(k, s)| k == "fault_injected" && s == "info"),
        "injection must be visible: {guards:?}"
    );
    assert!(
        guards
            .iter()
            .any(|(k, s)| k == "nonfinite_grad" && s == "trip"),
        "the skip counter must trip the guard: {guards:?}"
    );
    let rec = recovery_actions(&sink);
    let actions: Vec<&str> = rec.iter().map(|(a, _)| a.as_str()).collect();
    assert_eq!(actions, vec!["rollback", "retry"], "log: {rec:?}");
    assert!(
        rec[0].1.contains("checkpoint state"),
        "rollback must come from disk here: {}",
        rec[0].1
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a checkpoint directory the rollback target is the in-memory
/// last-good snapshot; recovery still works.
#[test]
fn rollback_falls_back_to_memory_without_checkpoints() {
    let mut cfg = base_cfg(Some(1));
    cfg.guard = Some(guard("nan_grad@epoch:12", 2));
    let sink = MemorySink::new();
    let report = run_r(&cfg, None, &sink).unwrap();

    assert!(!report.degraded);
    assert_eq!(report.epochs.last().unwrap().epoch, 29);
    let rec = recovery_actions(&sink);
    assert_eq!(rec.len(), 2, "log: {rec:?}");
    assert!(
        rec[0].1.contains("memory state"),
        "no disk state exists, so the source must be memory: {}",
        rec[0].1
    );
}

/// A zero retry budget turns the first trip into graceful degradation: the
/// run completes on the last-good parameters, reports finite metrics, and
/// both the report and the run log carry the degraded mark.
#[test]
fn exhausted_retries_finish_degraded_on_last_good_params() {
    let mut cfg = base_cfg(Some(1));
    cfg.guard = Some(guard("nan_loss@epoch:12", 0));
    let sink = MemorySink::new();
    let report = run_r(&cfg, None, &sink).unwrap();

    assert!(report.degraded, "retries exhausted must mark the run");
    let m = &report.final_metrics;
    assert!(
        m.acc.is_finite() && m.nmi.is_finite() && m.ari.is_finite(),
        "last-good params still evaluate cleanly"
    );
    let guards = guard_kinds(&sink);
    assert!(
        guards
            .iter()
            .any(|(k, s)| k == "nonfinite_loss" && s == "trip"),
        "log: {guards:?}"
    );
    let rec = recovery_actions(&sink);
    assert_eq!(rec.len(), 1, "log: {rec:?}");
    assert_eq!(rec[0].0, "degraded");

    // The degraded mark round-trips into the JSONL run summary.
    let run_end = sink.of_kind("run_end");
    match &run_end[..] {
        [Event::RunEnd(summary)] => assert!(summary.degraded),
        other => panic!("expected one run_end, got {other:?}"),
    }
}

/// Compound fault: the latest checkpoint generation is byte-flipped before
/// the gradient fault trips. The rollback loader rejects the damaged file
/// (surfacing it as a `corrupt` checkpoint event) and falls back to the
/// healthy-tagged generation; the run still recovers fully.
#[test]
fn corrupt_checkpoint_falls_back_to_healthy_generation() {
    let mut cfg = base_cfg(Some(1));
    cfg.guard = Some(guard("corrupt_ckpt@epoch:10,nan_grad@epoch:12", 2));
    let dir = temp_dir("corrupt-combo");
    let sink = MemorySink::new();
    let report = run_r(&cfg, Some(CheckpointOpts::new(&dir).every(7)), &sink).unwrap();

    assert!(!report.degraded);
    assert_eq!(report.epochs.last().unwrap().epoch, 29);
    let ckpt_events = sink.of_kind("checkpoint");
    assert!(
        ckpt_events
            .iter()
            .any(|e| matches!(e, Event::Checkpoint { action, .. } if action == "corrupt")),
        "the damaged generation must be surfaced"
    );
    assert!(
        ckpt_events
            .iter()
            .any(|e| matches!(e, Event::Checkpoint { action, .. } if action == "fallback")),
        "the loader must report falling back past it"
    );
    let rec = recovery_actions(&sink);
    let actions: Vec<&str> = rec.iter().map(|(a, _)| a.as_str()).collect();
    assert_eq!(actions, vec!["rollback", "retry"], "log: {rec:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Loss-override faults (`inf_loss`) trip the monitor even though the
/// underlying step was fine — the loss check path, as opposed to the
/// gradient path covered above.
#[test]
fn inf_loss_fault_trips_and_recovers() {
    let mut cfg = base_cfg(Some(1));
    cfg.guard = Some(guard("inf_loss@epoch:9", 2));
    let sink = MemorySink::new();
    let report = run_r(&cfg, None, &sink).unwrap();
    assert!(!report.degraded);
    let guards = guard_kinds(&sink);
    assert!(
        guards
            .iter()
            .any(|(k, s)| k == "nonfinite_loss" && s == "trip"),
        "log: {guards:?}"
    );
    // The recorded epochs never contain the poisoned loss: the epoch was
    // rolled back and re-run, so every reported loss is finite.
    assert!(report.epochs.iter().all(|e| e.loss.is_finite()));
}

/// The plain trainer shares the guard plumbing: a clustering-phase fault
/// recovers there too.
#[test]
fn plain_trainer_recovers_from_injected_fault() {
    let mut cfg = base_cfg(Some(1));
    cfg.guard = Some(guard("nan_grad@epoch:12", 2));
    let dir = temp_dir("plain-nan-grad");
    let sink = MemorySink::new();
    let report = run_plain(&cfg, Some(&CheckpointOpts::new(&dir).every(7)), &sink).unwrap();

    assert!(!report.degraded);
    assert_eq!(report.epochs.last().unwrap().epoch, 29);
    assert!(report.final_metrics.acc.is_finite());
    let rec = recovery_actions(&sink);
    let actions: Vec<&str> = rec.iter().map(|(a, _)| a.as_str()).collect();
    assert_eq!(actions, vec!["rollback", "retry"], "log: {rec:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
