//! The traced pass's recorder: keeps in memory the spans, counters and
//! events the trainer already emits, and charges the `rgae-par` kernel time
//! that elapses inside each span to that span, so layer self times can be
//! derived without any span inside the program.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use rgae_obs::{Event, Recorder};

/// Calls and seconds of one kernel (or one group of kernels).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelTotal {
    /// Completed calls.
    pub calls: u64,
    /// Wall seconds inside the kernel.
    pub seconds: f64,
}

/// Per-kernel totals keyed by the `rgae-par` kernel name.
pub type KernelTable = BTreeMap<String, KernelTotal>;

/// Which layer a kernel of the `rgae-par` registry belongs to.
pub fn kernel_layer(name: &str) -> &'static str {
    if name.starts_with("mat_") || name.starts_with("csr_") || name.starts_with("fused_gram_bce") {
        "linalg"
    } else if name.starts_with("kmeans_") || name.starts_with("gmm_") {
        "cluster"
    } else {
        "autodiff"
    }
}

/// Add `src` into `dst`.
pub fn merge(dst: &mut KernelTable, src: &KernelTable) {
    for (k, v) in src {
        let e = dst.entry(k.clone()).or_default();
        e.calls += v.calls;
        e.seconds += v.seconds;
    }
}

/// Drain the process-wide kernel registry into a table.
pub fn take_kernels() -> KernelTable {
    rgae_par::take_kernel_stats()
        .into_iter()
        .map(|(k, s)| {
            (
                k.to_owned(),
                KernelTotal {
                    calls: s.calls,
                    seconds: s.seconds,
                },
            )
        })
        .collect()
}

/// `(kernel, calls, seconds)` of every linalg kernel at one instant.
type LinalgSnapshot = Vec<(&'static str, u64, f64)>;

/// Linalg kernel totals in the registry right now (no reset).
fn linalg_seconds_now() -> LinalgSnapshot {
    rgae_par::kernel_stats()
        .into_iter()
        .filter(|(k, _)| kernel_layer(k) == "linalg")
        .map(|(k, s)| (k, s.calls, s.seconds))
        .collect()
}

/// Linalg kernel seconds charged between two snapshots. A kernel whose call
/// count went down was reset in between (the trainer scopes the registry
/// to each run); its whole later total counts.
fn linalg_delta(before: &[(&'static str, u64, f64)], after: &[(&'static str, u64, f64)]) -> f64 {
    after
        .iter()
        .map(|&(k, calls, secs)| match before.iter().find(|b| b.0 == k) {
            Some(&(_, c0, s0)) if c0 <= calls => secs - s0,
            _ => secs,
        })
        .sum()
}

/// Totals of every span that shares one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotal {
    /// Spans closed.
    pub calls: u64,
    /// Wall seconds inside them.
    pub seconds: f64,
    /// Linalg kernel seconds charged while they were open.
    pub linalg_seconds: f64,
}

/// In-memory recorder owned by the benchmark.
#[derive(Default)]
pub struct TraceRecorder {
    open: RefCell<Vec<(&'static str, LinalgSnapshot)>>,
    spans: RefCell<BTreeMap<&'static str, SpanTotal>>,
    counters: RefCell<BTreeMap<String, u64>>,
    /// Kernel tables the trainer flushes at the end of each run
    /// (`par_<kernel>_calls` counters, `par_<kernel>_seconds` gauges).
    flushed: RefCell<KernelTable>,
    epoch_mark: Cell<Option<Instant>>,
    epoch_ms: RefCell<Vec<f64>>,
    guard_trips: Cell<u64>,
    ckpt_saves: Cell<u64>,
    ckpt_bytes: Cell<u64>,
}

impl TraceRecorder {
    /// Fresh, empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Totals of the spans named `name`.
    pub fn span(&self, name: &str) -> SpanTotal {
        self.spans.borrow().get(name).copied().unwrap_or_default()
    }

    /// Total of counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.borrow().get(name).copied().unwrap_or(0)
    }

    /// Drain the kernel tables flushed by the trainer since the last call.
    pub fn take_flushed(&self) -> KernelTable {
        std::mem::take(&mut self.flushed.borrow_mut())
    }

    /// Wall milliseconds of every clustering-phase epoch seen so far: the
    /// time from the phase start (or the previous epoch event) to the epoch
    /// event, so Ξ/Υ refreshes and checkpoint saves land in the epoch that
    /// paid for them.
    pub fn epoch_ms(&self) -> Vec<f64> {
        self.epoch_ms.borrow().clone()
    }

    /// Guard findings of severity `trip`.
    pub fn guard_trips(&self) -> u64 {
        self.guard_trips.get()
    }

    /// Checkpoint saves seen, and the bytes of the files they wrote.
    pub fn ckpt_saves(&self) -> (u64, u64) {
        (self.ckpt_saves.get(), self.ckpt_bytes.get())
    }

    /// The exact work counts only the recorder sees: Υ and Ξ calls, k-means
    /// iterations, checkpoint saves and bytes. Two passes of the same code
    /// on the same inputs repeat them exactly.
    pub fn work_counts(&self) -> [u64; 5] {
        let (saves, bytes) = self.ckpt_saves();
        [
            self.span("upsilon").calls,
            self.span("xi").calls,
            self.counter("kmeans_iterations"),
            saves,
            bytes,
        ]
    }
}

impl Recorder for TraceRecorder {
    fn record(&self, event: &Event) {
        match event {
            Event::Counter { name, delta } => {
                *self.counters.borrow_mut().entry(name.clone()).or_insert(0) += delta;
                if let Some(k) = name
                    .strip_prefix("par_")
                    .and_then(|n| n.strip_suffix("_calls"))
                {
                    self.flushed
                        .borrow_mut()
                        .entry(k.to_owned())
                        .or_default()
                        .calls += delta;
                }
            }
            Event::Gauge { name, value, .. } => {
                if let Some(k) = name
                    .strip_prefix("par_")
                    .and_then(|n| n.strip_suffix("_seconds"))
                {
                    self.flushed
                        .borrow_mut()
                        .entry(k.to_owned())
                        .or_default()
                        .seconds += value;
                }
            }
            Event::Epoch(_) => {
                let now = Instant::now();
                if let Some(mark) = self.epoch_mark.replace(Some(now)) {
                    self.epoch_ms
                        .borrow_mut()
                        .push((now - mark).as_secs_f64() * 1e3);
                }
            }
            Event::Guard { severity, .. } if severity == "trip" => {
                self.guard_trips.set(self.guard_trips.get() + 1);
            }
            Event::Checkpoint { action, path, .. } if action == "saved" => {
                self.ckpt_saves.set(self.ckpt_saves.get() + 1);
                let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
                self.ckpt_bytes.set(self.ckpt_bytes.get() + bytes);
            }
            _ => {}
        }
    }

    fn span_enter(&self, name: &'static str) {
        if name == "clustering" {
            self.epoch_mark.set(Some(Instant::now()));
        }
        self.open.borrow_mut().push((name, linalg_seconds_now()));
    }

    fn span_exit(&self, name: &'static str, seconds: f64) {
        let after = linalg_seconds_now();
        let mut open = self.open.borrow_mut();
        // Pop back to `name`; scopes that leaked without an exit are dropped.
        while let Some((top, before)) = open.pop() {
            if top == name {
                let mut spans = self.spans.borrow_mut();
                let t = spans.entry(name).or_default();
                t.calls += 1;
                t.seconds += seconds;
                t.linalg_seconds += linalg_delta(&before, &after);
                break;
            }
        }
        if name == "clustering" {
            self.epoch_mark.set(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_map_to_layers() {
        assert_eq!(kernel_layer("mat_matmul"), "linalg");
        assert_eq!(kernel_layer("csr_spmm"), "linalg");
        assert_eq!(kernel_layer("fused_gram_bce_fwd_bwd"), "linalg");
        assert_eq!(kernel_layer("kmeans_assign"), "cluster");
        assert_eq!(kernel_layer("gmm_estep"), "cluster");
        assert_eq!(kernel_layer("bce_sparse_fwd"), "autodiff");
    }

    #[test]
    fn linalg_delta_survives_a_registry_reset() {
        let before = [("mat_matmul", 5, 1.0), ("csr_spmm", 2, 0.5)];
        let after = [("mat_matmul", 7, 1.5), ("csr_spmm", 1, 0.25)];
        // matmul grew by 0.5; spmm was reset and counts whole.
        assert!((linalg_delta(&before, &after) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn recorder_aggregates_spans_counters_and_flushes() {
        let rec = TraceRecorder::new();
        let r: &dyn Recorder = &rec;
        {
            let _outer = rgae_obs::span(r, "clustering");
            let _step = rgae_obs::span(r, "step");
        }
        r.count("edges_added", 3);
        r.count("edges_added", 4);
        r.count("par_csr_spmm_calls", 9);
        r.gauge("par_csr_spmm_seconds", None, 0.5);
        r.record(&Event::Guard {
            kind: "loss_spike".into(),
            severity: "trip".into(),
            phase: "clustering".into(),
            epoch: Some(1),
            value: None,
            threshold: None,
            detail: String::new(),
        });
        assert_eq!(rec.span("step").calls, 1);
        assert_eq!(rec.span("clustering").calls, 1);
        assert_eq!(rec.counter("edges_added"), 7);
        assert_eq!(rec.guard_trips(), 1);
        let flushed = rec.take_flushed();
        assert_eq!(
            flushed["csr_spmm"],
            KernelTotal {
                calls: 9,
                seconds: 0.5
            }
        );
        assert!(rec.take_flushed().is_empty());
    }
}
