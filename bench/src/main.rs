//! `rgae-bench`: the repository benchmark. Runs one workload (or all three)
//! for a fixed time from a seed, checks the outputs, and prints every
//! metric with its unit, direction and sample count, then one JSON result
//! line.
//!
//! ```text
//! cargo run --release --manifest-path bench/Cargo.toml -- \
//!     --workload cora-sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of untraced passes; `--trace
//! 1` spends half the time on untraced passes and half on traced ones and
//! reports the per-layer split. See `bench/README.md`.

mod report;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use report::{find, Value, END_TO_END, PER_LAYER, UNBOUNDED};
use trace::{merge, KernelTable, TraceRecorder};
use workload::{instance_seed, Pass, RunResult, Workload, DECODER_TILE};

/// The glibc malloc tunables `run_all.sh` exports: without them the
/// per-epoch matrix churn returns pages to the kernel on every free and
/// page faults add a noisy ~30% to wall time.
const PINNED_TUNABLES: &str =
    "glibc.malloc.trim_threshold=67108864:glibc.malloc.mmap_threshold=67108864";

/// Environment variables that would change what the program computes or how
/// fast; the benchmark pins their effect itself.
const UNPINNED_VARS: [&str; 3] = ["RGAE_THREADS", "RGAE_DECODER_TILE", "RGAE_FAULT"];

/// A seed kept out of all tuning of the benchmark. Confirm a claimed gain on
/// it as well as on the seeds the claim was developed on.
const HELD_OUT_SEED: u64 = 20_231_107;

/// Set-ups made before the timed passes, so `setup_s` is a median of
/// several set-ups even when only one or two passes fit.
const EXTRA_SETUPS: u64 = 40;

/// Upper bound of the pool size (the benchmark was tuned on 2 cores); fewer
/// when the machine has fewer.
const MAX_THREADS: usize = 2;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

const USAGE: &str = "usage: rgae-bench --workload <cora-sweep|pubmed-large|air-small|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 0,
        seconds: 0.0,
        traced: false,
    };
    let (mut seen_seed, mut seen_seconds) = (false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("`{flag}` requires a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => {
                args.seed = value.parse().map_err(|_| "--seed takes an integer")?;
                seen_seed = true;
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds takes a number")?;
                seen_seconds = args.seconds > 0.0;
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    if args.workloads.is_empty() || !seen_seed || !seen_seconds {
        return Err("--workload, --seed and a positive --seconds are required".into());
    }
    Ok(args)
}

/// Re-run this program under the pinned allocator tunables and without the
/// variables that would override the pinned pool, tile or fault schedule.
/// `None` when the environment is already pinned; else the child's exit
/// code.
fn pin_environment() -> Option<u8> {
    let pinned = std::env::var("GLIBC_TUNABLES").is_ok_and(|v| v == PINNED_TUNABLES)
        && UNPINNED_VARS.iter().all(|v| std::env::var_os(v).is_none());
    if pinned {
        return None;
    }
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut cmd = Command::new(exe);
    cmd.args(std::env::args_os().skip(1))
        .env("GLIBC_TUNABLES", PINNED_TUNABLES);
    for v in UNPINNED_VARS {
        cmd.env_remove(v);
    }
    match cmd.status() {
        Ok(status) => Some(status.code().map_or(1, |c| c.clamp(0, 255) as u8)),
        Err(e) => {
            eprintln!("rgae-bench: cannot re-run under pinned tunables: {e}");
            Some(1)
        }
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one workload run measured.
struct Outcome {
    workload: Workload,
    setups: Vec<f64>,
    untraced: Vec<Pass>,
    traced: Vec<(Pass, TraceRecorder)>,
    /// `(run label, reason)` of every failed run.
    failures: Vec<(String, String)>,
    attempted: usize,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> String {
    format!("{what} {}: {e}", path.display())
}

/// One pass over instance `instance` of the run, in a fresh checkpoint
/// directory that is removed afterwards.
fn one_pass(
    w: Workload,
    seed: u64,
    instance: u64,
    threads: usize,
    dir: &Path,
    trace: Option<&TraceRecorder>,
) -> Result<Pass, String> {
    let s = workload::setup(w.jobs(instance_seed(seed, instance)), dir)
        .map_err(|e| io_err("set-up in", dir, e))?;
    let mut pass = workload::train(s, threads, trace);
    pass.instance = instance;
    eprintln!(
        "{} {} pass, instance {instance}: setup {:.6} s, train {:.4} s, {} steps",
        w.name(),
        if trace.is_some() {
            "traced"
        } else {
            "untraced"
        },
        pass.setup_s,
        pass.train_s,
        pass.steps()
    );
    std::fs::remove_dir_all(dir).map_err(|e| io_err("removing", dir, e))?;
    Ok(pass)
}

/// Untraced passes until `seconds` (half of it when traced) have gone, then
/// traced passes until the rest has; at least one pass of each kind.
/// Untraced pass `k` runs instance `k mod INSTANCES`; every traced pass
/// replays instance 0, so the per-layer counts of a seed do not depend on
/// how many passes the time allowed.
fn run_workload(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    threads: usize,
    work: &Path,
) -> Result<Outcome, String> {
    let instances = Workload::INSTANCES;
    let mut setups = Vec::new();
    for i in 0..EXTRA_SETUPS {
        let dir = work.join(format!("setup-{i}"));
        let s = workload::setup(w.jobs(instance_seed(seed, i % instances)), &dir)
            .map_err(|e| io_err("set-up in", &dir, e))?;
        setups.push(s.setup_s);
        drop(s);
        std::fs::remove_dir_all(&dir).map_err(|e| io_err("removing", &dir, e))?;
    }
    let start = Instant::now();
    let untraced_budget = if traced { seconds / 2.0 } else { seconds };
    // Another pass runs while it is expected to end within the budget.
    let room = |budget: f64, done: usize| {
        let spent = start.elapsed().as_secs_f64();
        done == 0 || spent + spent / done as f64 <= budget * 1.1
    };
    let mut untraced = Vec::new();
    while room(untraced_budget, untraced.len()) {
        let k = untraced.len() as u64;
        let dir = work.join(format!("pass-{k}"));
        untraced.push(one_pass(w, seed, k % instances, threads, &dir, None)?);
    }
    let mut traced_passes = Vec::new();
    while traced
        && (traced_passes.is_empty() || room(seconds, untraced.len() + traced_passes.len()))
    {
        let rec = TraceRecorder::new();
        let dir = work.join(format!("traced-{}", traced_passes.len()));
        let pass = one_pass(w, seed, 0, threads, &dir, Some(&rec))?;
        traced_passes.push((pass, rec));
    }
    setups.extend(untraced.iter().map(|p| p.setup_s));
    setups.extend(traced_passes.iter().map(|(p, _)| p.setup_s));

    // Correctness gate: every run's own checks, plus every pass repeating
    // the first pass of its instance bit for bit (metrics, losses, epoch and
    // kernel-call counts). A traced pass that differs from its untraced
    // twin describes a different program.
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut reference: BTreeMap<u64, Vec<Vec<u64>>> = BTreeMap::new();
    let all = untraced
        .iter()
        .map(|p| ("untraced", p))
        .chain(traced_passes.iter().map(|(p, _)| ("traced", p)));
    for (kind, pass) in all {
        let sigs: Vec<Vec<u64>> = pass.runs.iter().map(|r| r.signature()).collect();
        let first = reference
            .entry(pass.instance)
            .or_insert_with(|| sigs.clone());
        for (j, run) in pass.runs.iter().enumerate() {
            attempted += 1;
            let reason = run.failure().or_else(|| {
                (first.get(j) != Some(&sigs[j])).then(|| {
                    format!(
                        "{kind} pass differs from the first pass of instance {}",
                        pass.instance
                    )
                })
            });
            if let Some(reason) = reason {
                failures.push((run.label.clone(), reason));
            }
        }
    }
    // Work counts only the recorder sees must repeat exactly too (every
    // traced pass ran instance 0).
    if let Some((_, first)) = traced_passes.first() {
        for (_, rec) in &traced_passes[1..] {
            if rec.work_counts() != first.work_counts() {
                failures.push((
                    format!("{} instance 0", w.name()),
                    "traced work counts differ between traced passes".into(),
                ));
            }
        }
    }
    Ok(Outcome {
        workload: w,
        setups,
        untraced,
        traced: traced_passes,
        failures,
        attempted,
    })
}

/// The first pass of every distinct instance.
fn distinct(passes: &[Pass]) -> Vec<&Pass> {
    let mut seen = Vec::new();
    passes
        .iter()
        .filter(|p| {
            let new = !seen.contains(&p.instance);
            seen.push(p.instance);
            new
        })
        .collect()
}

/// End-to-end metrics of the untraced passes: the bounded ones, then the
/// unbounded ones.
fn end_to_end(o: &Outcome) -> (Vec<Value>, Vec<Value>) {
    let passes = &o.untraced;
    let train: Vec<f64> = passes.iter().map(|p| p.train_s).collect();
    let rate: Vec<f64> = passes
        .iter()
        .map(|p| p.steps() as f64 / p.train_s)
        .collect();
    // Repeats of an instance are bit-identical (checked above), so quality
    // is a mean over the runs of the distinct instances.
    let runs: Vec<&RunResult> = distinct(passes).into_iter().flat_map(|p| &p.runs).collect();
    let mean = |f: fn(&rgae_core::Metrics) -> f64| {
        runs.iter().map(|r| f(&r.metrics)).sum::<f64>() / runs.len() as f64
    };
    let bounded = |name| find(END_TO_END, name);
    let unbounded = |name| find(UNBOUNDED, name);
    (
        vec![
            Value::of(bounded("setup_s"), &o.setups),
            Value::of(bounded("train_s"), &train),
            Value::of(bounded("epochs_per_s"), &rate),
            Value::single(bounded("peak_rss_mb"), peak_rss_mb(), 1),
        ],
        vec![
            Value::single(unbounded("acc"), mean(|m| m.acc), runs.len()),
            Value::single(unbounded("nmi"), mean(|m| m.nmi), runs.len()),
            Value::single(unbounded("ari"), mean(|m| m.ari), runs.len()),
            Value::single(
                unbounded("fail_rate"),
                o.failures.len() as f64 / o.attempted as f64,
                o.attempted,
            ),
        ],
    )
}

/// Every kernel's totals over a pass's runs.
fn pass_kernels(pass: &Pass) -> KernelTable {
    let mut all = KernelTable::new();
    for r in &pass.runs {
        merge(&mut all, &r.kernels);
    }
    all
}

/// Per-layer values of one traced pass, by metric name.
fn layer_values(pass: &Pass, rec: &TraceRecorder, threads: usize) -> Vec<(&'static str, f64)> {
    let kernels = pass_kernels(pass);
    let sum = |names: &[&str]| {
        names.iter().fold((0u64, 0.0), |(c, s), n| {
            kernels
                .get(*n)
                .map_or((c, s), |k| (c + k.calls, s + k.seconds))
        })
    };
    let decoder = sum(&["fused_gram_bce_fwd_bwd"]);
    // GMM fitting runs outside any trainer span; its kernels time it.
    let gmm = sum(&["gmm_estep", "gmm_mstep"]);
    let matmul = sum(&["mat_matmul", "mat_matmul_t", "mat_t_matmul", "mat_gram"]);
    let spmm = sum(&["csr_spmm", "csr_t_spmm"]);
    // Computed decoder work: every call forms the N² Gram entries (2·N²·d
    // flops) and their gradient (C + Cᵀ)·Z (another 2·N²·d).
    let (mut pairs, mut flops) = (0.0, 0.0);
    for r in &pass.runs {
        let calls = r
            .kernels
            .get("fused_gram_bce_fwd_bwd")
            .map_or(0, |k| k.calls) as f64;
        let n2 = (r.nodes * r.nodes) as f64;
        pairs += calls * n2;
        flops += calls * 4.0 * n2 * r.latent as f64;
    }
    let (pretrain, step) = (rec.span("pretrain"), rec.span("step"));
    let coverage: Vec<f64> = pass.runs.iter().filter_map(|r| r.omega_coverage).collect();
    let ckpt_save: Vec<f64> = pass.ckpt.iter().map(|c| c.save_ms).collect();
    let ckpt_load: Vec<f64> = pass.ckpt.iter().map(|c| c.load_ms).collect();
    let (saves, bytes) = rec.ckpt_saves();
    vec![
        ("datasets.generate_s", pass.generate_s),
        ("models.prep_s", pass.prep_s),
        ("models.pretrain_s", pretrain.seconds),
        ("models.step_s", step.seconds),
        ("models.steps", pass.steps() as f64),
        (
            "autodiff.self_s",
            pretrain.seconds - pretrain.linalg_seconds + step.seconds - step.linalg_seconds,
        ),
        ("linalg.decoder_s", decoder.1),
        ("linalg.decoder_calls", decoder.0 as f64),
        ("linalg.decoder_pairs", pairs),
        ("linalg.decoder_gflops", flops / 1e9),
        ("linalg.matmul_s", matmul.1),
        ("linalg.matmul_calls", matmul.0 as f64),
        ("linalg.spmm_s", spmm.1),
        ("linalg.spmm_calls", spmm.0 as f64),
        ("par.threads", threads as f64),
        (
            "par.kernel_calls",
            kernels.values().map(|k| k.calls).sum::<u64>() as f64,
        ),
        ("cluster.kmeans_s", rec.span("kmeans").seconds),
        ("cluster.kmeans_calls", rec.span("kmeans").calls as f64),
        (
            "cluster.kmeans_iters",
            rec.counter("kmeans_iterations") as f64,
        ),
        ("cluster.gmm_s", gmm.1),
        ("cluster.eval_s", rec.span("eval").seconds),
        ("core.xi_s", rec.span("xi").seconds),
        ("core.xi_calls", rec.span("xi").calls as f64),
        ("core.upsilon_s", rec.span("upsilon").seconds),
        ("core.upsilon_calls", rec.span("upsilon").calls as f64),
        ("core.edges_added", rec.counter("edges_added") as f64),
        ("core.edges_dropped", rec.counter("edges_dropped") as f64),
        (
            "core.omega_coverage",
            coverage.iter().sum::<f64>() / coverage.len().max(1) as f64,
        ),
        ("core.record_s", rec.span("record").seconds),
        (
            "core.epochs",
            pass.runs.iter().map(|r| r.losses.len()).sum::<usize>() as f64,
        ),
        ("ckpt.saves", saves as f64),
        ("ckpt.bytes", bytes as f64),
        ("ckpt.save_ms", stats::median(&ckpt_save).unwrap_or(0.0)),
        ("ckpt.load_ms", stats::median(&ckpt_load).unwrap_or(0.0)),
        ("guard.trips", rec.guard_trips() as f64),
    ]
}

/// Per-layer metrics: the median over traced passes of each value; epoch
/// percentiles over every traced epoch; and the tracing overhead, each
/// traced pass against the untraced pass of the same instance (0).
fn per_layer(o: &Outcome, threads: usize) -> Vec<Value> {
    let per_pass: Vec<Vec<(&str, f64)>> = o
        .traced
        .iter()
        .map(|(p, rec)| layer_values(p, rec, threads))
        .collect();
    let untraced = distinct(&o.untraced);
    let ratios: Vec<f64> = o
        .traced
        .iter()
        .filter_map(|(p, _)| {
            let twin = untraced.iter().find(|u| u.instance == p.instance)?;
            Some(p.train_s / twin.train_s)
        })
        .collect();
    let epoch_ms: Vec<f64> = o.traced.iter().flat_map(|(_, r)| r.epoch_ms()).collect();
    PER_LAYER
        .iter()
        .map(|d| match d.name {
            "obs.overhead_pct" => {
                let ratio = stats::median(&ratios).unwrap_or(1.0);
                Value::single(d, (ratio - 1.0) * 100.0, ratios.len())
            }
            "core.epoch_ms_p50" => Value {
                value: stats::percentile(&epoch_ms, 50.0).unwrap_or(0.0),
                ..Value::of(d, &epoch_ms)
            },
            "core.epoch_ms_p99" => Value {
                value: stats::percentile(&epoch_ms, 99.0).unwrap_or(0.0),
                ..Value::of(d, &epoch_ms)
            },
            name => {
                let samples: Vec<f64> = per_pass
                    .iter()
                    .map(|vals| vals.iter().find(|(n, _)| *n == name).map_or(0.0, |v| v.1))
                    .collect();
                Value::of(d, &samples)
            }
        })
        .collect()
}

/// The timed layers a traced `train_s` is split into. They overlap where
/// one nests in another (k-means inside eval, Ξ and Υ; eval inside record),
/// so their shares need not add up to 100%.
const LAYER_TIMES: [&str; 10] = [
    "linalg.decoder_s",
    "linalg.matmul_s",
    "linalg.spmm_s",
    "autodiff.self_s",
    "cluster.kmeans_s",
    "cluster.gmm_s",
    "cluster.eval_s",
    "core.xi_s",
    "core.upsilon_s",
    "core.record_s",
];

/// Each timed layer's share of the median traced `train_s`, largest first.
struct Shares {
    workload: Workload,
    ranked: Vec<(&'static str, f64)>,
}

impl Shares {
    fn new(o: &Outcome, values: &[Value]) -> Shares {
        let train = stats::median(&o.traced.iter().map(|(p, _)| p.train_s).collect::<Vec<_>>())
            .unwrap_or(0.0);
        let mut ranked: Vec<(&str, f64)> = values
            .iter()
            .filter(|v| LAYER_TIMES.contains(&v.def.name))
            .map(|v| (v.def.name, v.value / train))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        Shares {
            workload: o.workload,
            ranked,
        }
    }

    fn of(&self, name: &str) -> f64 {
        self.ranked
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |s| s.1)
    }

    /// The share Υ and the autodiff tape take together: large where the
    /// kernels are small.
    fn per_call_overheads(&self) -> f64 {
        self.of("core.upsilon_s") + self.of("autodiff.self_s")
    }
}

/// The traced report: per-layer table, layer shares, and the kernel table
/// of each run of the first traced pass.
fn print_traced(o: &Outcome, values: &[Value], shares: &Shares) {
    println!(
        "{}",
        report::table(&format!("{} per-layer (traced)", o.workload.name()), values)
    );
    println!("layer shares of the traced train_s:");
    for (name, share) in &shares.ranked {
        println!("  {name:<20} {:6.2}%", share * 100.0);
    }
    println!(
        "  core.upsilon_s + autodiff.self_s: {:.2}%",
        shares.per_call_overheads() * 100.0
    );
    if let Some((pass, _)) = o.traced.first() {
        println!("kernel tables (rgae_par::take_kernel_stats), first traced pass:");
        for run in &pass.runs {
            println!(
                "  {} (N={}, train {:.4} s)",
                run.label, run.nodes, run.train_s
            );
            for (name, k) in &run.kernels {
                println!("    {name:<26} {:>8} calls {:>10.4} s", k.calls, k.seconds);
            }
        }
    }
}

/// Check the layer rationale the workloads were chosen for, and say where
/// it does not hold. Informational: a miss is reported, not failed.
fn check_rationale(shares: &[Shares]) {
    let get = |w| shares.iter().find(|s| s.workload == w);
    let verdict = |ok| if ok { "holds" } else { "DOES NOT HOLD" };
    if let Some(pubmed) = get(Workload::PubmedLarge) {
        let top = pubmed.ranked.first().map_or("none", |r| r.0);
        println!(
            "rationale: linalg.decoder_s is the largest layer on pubmed-large: {} (largest: {top})",
            verdict(top == "linalg.decoder_s")
        );
    }
    if let (Some(air), Some(pubmed)) = (get(Workload::AirSmall), get(Workload::PubmedLarge)) {
        let (a, p) = (air.per_call_overheads(), pubmed.per_call_overheads());
        println!(
            "rationale: core.upsilon_s + autodiff.self_s take a larger share on air-small \
             ({:.2}%) than on pubmed-large ({:.2}%): {}",
            a * 100.0,
            p * 100.0,
            verdict(a > p)
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rgae-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(code) = pin_environment() {
        return ExitCode::from(code);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(MAX_THREADS);
    rgae_par::set_threads(Some(threads));
    rgae_linalg::set_decoder_tile(Some(DECODER_TILE));
    println!(
        "env: profile={} threads={threads} nproc={nproc} decoder_tile={} \
         checkpoint_every={} guard=on GLIBC_TUNABLES={PINNED_TUNABLES} \
         seed={} held_out_seed={HELD_OUT_SEED} seconds={} trace={}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        DECODER_TILE,
        workload::CKPT_EVERY,
        args.seed,
        args.seconds,
        u8::from(args.traced),
    );

    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(std::process::id().to_string());
    let outcomes: Result<Vec<Outcome>, String> = args
        .workloads
        .iter()
        .map(|&w| run_workload(w, args.seed, args.seconds, args.traced, threads, &work))
        .collect();
    let _ = std::fs::remove_dir_all(&work);
    let outcomes = match outcomes {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rgae-bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    // `--workload all` names each result metric `<workload>.<metric>`.
    let prefix = |w: Workload| {
        if outcomes.len() > 1 {
            format!("{}.", w.name())
        } else {
            String::new()
        }
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut result: Vec<(String, Value)> = Vec::new();
    let mut shares = Vec::new();
    for o in &outcomes {
        attempted += o.attempted;
        failed += o.failures.len();
        let (bounded, unbounded) = end_to_end(o);
        let passes = format!(
            "{} untraced + {} traced passes of {} runs",
            o.untraced.len(),
            o.traced.len(),
            o.untraced[0].runs.len()
        );
        println!(
            "{}",
            report::table(
                &format!("{} end-to-end ({passes})", o.workload.name()),
                bounded.iter().chain(&unbounded)
            )
        );
        for (label, reason) in &o.failures {
            println!("FAILED {label}: {reason}");
        }
        let values = if args.traced {
            let layer = per_layer(o, threads);
            let s = Shares::new(o, &layer);
            print_traced(o, &layer, &s);
            shares.push(s);
            layer
        } else {
            bounded
        };
        let p = prefix(o.workload);
        result.extend(
            values
                .into_iter()
                .map(|v| (format!("{p}{}", v.def.name), v)),
        );
    }
    check_rationale(&shares);
    let correct = failed == 0 && result.iter().all(|(_, v)| v.value.is_finite());
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &result)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
