//! The [`Recorder`] trait, the no-op recorder, and RAII span timers.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::event::{Event, TimingEntry};

/// A destination for run-log events.
///
/// Training code holds a `&dyn Recorder` and stays agnostic of where events
/// go (a JSONL file, memory, or nowhere). Implementations use
/// interior mutability; the training stack is single-threaded.
pub trait Recorder {
    /// Whether events are consumed at all. Hot paths may skip building
    /// event payloads when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one event.
    fn record(&self, event: &Event);

    /// Open a nested span scope. Paired with [`Recorder::span_exit`];
    /// prefer the RAII [`span`] helper over calling these directly.
    fn span_enter(&self, name: &'static str);

    /// Close the innermost scope `name`, reporting its wall-clock seconds.
    fn span_exit(&self, name: &'static str, seconds: f64);

    /// Increment a monotonic counter.
    fn count(&self, name: &str, delta: u64) {
        if self.enabled() && delta > 0 {
            self.record(&Event::Counter {
                name: name.to_owned(),
                delta,
            });
        }
    }

    /// Record a point-in-time measurement.
    fn gauge(&self, name: &str, epoch: Option<usize>, value: f64) {
        if self.enabled() {
            self.record(&Event::Gauge {
                name: name.to_owned(),
                epoch,
                value,
            });
        }
    }
}

/// The default recorder: consumes nothing.
///
/// `enabled()` is `false`, so callers guard payload construction and the
/// instrumented trainer's overhead stays within noise (< 2% on a quick run).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

/// A `'static` no-op instance for default-recorder plumbing.
pub static NOOP: NoopRecorder = NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: &Event) {}

    fn span_enter(&self, _name: &'static str) {}

    fn span_exit(&self, _name: &'static str, _seconds: f64) {}
}

/// RAII span timer: measures wall-clock time from construction until
/// [`SpanTimer::stop`] or drop, then reports it to the recorder.
///
/// Time is always measured (two `Instant` reads — nanoseconds), so the
/// elapsed value returned by `stop` is valid even under [`NoopRecorder`];
/// only the *reporting* is gated on `enabled()`.
pub struct SpanTimer<'a> {
    rec: &'a dyn Recorder,
    name: &'static str,
    start: Instant,
    stopped: bool,
}

/// Open a span. Nesting follows construction/drop order.
pub fn span<'a>(rec: &'a dyn Recorder, name: &'static str) -> SpanTimer<'a> {
    rec.span_enter(name);
    SpanTimer {
        rec,
        name,
        start: Instant::now(),
        stopped: false,
    }
}

impl SpanTimer<'_> {
    /// Close the span and return its elapsed seconds.
    pub fn stop(mut self) -> f64 {
        self.finish()
    }

    fn finish(&mut self) -> f64 {
        if self.stopped {
            return 0.0;
        }
        self.stopped = true;
        let seconds = self.start.elapsed().as_secs_f64();
        self.rec.span_exit(self.name, seconds);
        seconds
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Shared span bookkeeping for sinks: tracks the nesting stack and
/// aggregates per-path totals for the end-of-run timing table.
#[derive(Debug, Default)]
pub struct SpanBook {
    stack: RefCell<Vec<&'static str>>,
    totals: RefCell<BTreeMap<String, (u64, f64)>>,
}

impl SpanBook {
    /// Fresh, empty book.
    pub fn new() -> Self {
        SpanBook::default()
    }

    /// Push a scope.
    pub fn enter(&self, name: &'static str) {
        self.stack.borrow_mut().push(name);
    }

    /// Pop back to (and including) `name`, accumulate its timing, and
    /// return the full slash-joined path. Robust to scopes that leaked
    /// without an exit (they are discarded).
    pub fn exit(&self, name: &'static str, seconds: f64) -> String {
        let mut stack = self.stack.borrow_mut();
        while let Some(top) = stack.pop() {
            if top == name {
                break;
            }
        }
        let mut path = String::new();
        for part in stack.iter() {
            path.push_str(part);
            path.push('/');
        }
        path.push_str(name);
        let mut totals = self.totals.borrow_mut();
        let entry = totals.entry(path.clone()).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += seconds;
        path
    }

    /// The aggregated timing table, sorted by path.
    pub fn summary(&self) -> Vec<TimingEntry> {
        self.totals
            .borrow()
            .iter()
            .map(|(path, &(count, total_seconds))| TimingEntry {
                path: path.clone(),
                count,
                total_seconds,
            })
            .collect()
    }

    /// Reset both the stack and the totals (called on `run_start` so each
    /// run gets its own table).
    pub fn reset(&self) {
        self.stack.borrow_mut().clear();
        self.totals.borrow_mut().clear();
    }
}

/// Milliseconds since the Unix epoch (for run ids).
pub fn timestamp_ms() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_inert() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        rec.count("x", 3);
        rec.gauge("y", None, 1.0);
        let t = span(&rec, "outer");
        assert!(t.stop() >= 0.0);
    }

    #[test]
    fn span_book_builds_nested_paths() {
        let book = SpanBook::new();
        book.enter("a");
        book.enter("b");
        assert_eq!(book.exit("b", 0.5), "a/b");
        assert_eq!(book.exit("a", 1.0), "a");
        book.enter("a");
        book.enter("b");
        assert_eq!(book.exit("b", 0.25), "a/b");
        book.exit("a", 2.0);
        let summary = book.summary();
        let b = summary.iter().find(|e| e.path == "a/b").unwrap();
        assert_eq!(b.count, 2);
        assert!((b.total_seconds - 0.75).abs() < 1e-12);
        let a = summary.iter().find(|e| e.path == "a").unwrap();
        assert_eq!(a.count, 2);
    }

    #[test]
    fn span_book_recovers_from_leaked_scopes() {
        let book = SpanBook::new();
        book.enter("outer");
        book.enter("leaked");
        // `leaked` never exits; exiting `outer` discards it.
        assert_eq!(book.exit("outer", 1.0), "outer");
        assert!(book.stack.borrow().is_empty());
    }
}
