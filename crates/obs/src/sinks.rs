//! Recorder sinks: JSONL file and in-memory (tests).
//!
//! All sinks share the same span bookkeeping: `run_start` resets the timing
//! table, and `run_end` first emits the aggregated [`Event::TimingSummary`]
//! so every completed run carries its own timing table.

use std::cell::{Ref, RefCell};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::event::Event;
use crate::recorder::{Recorder, SpanBook};

/// Writes one JSON object per line to a log file under e.g.
/// `results/logs/`. Lines follow the [`Event::to_jsonl`] schema.
pub struct JsonlSink {
    out: RefCell<BufWriter<File>>,
    book: SpanBook,
}

impl JsonlSink {
    /// Create (truncate) the log file, creating parent directories.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(JsonlSink {
            out: RefCell::new(BufWriter::new(File::create(path)?)),
            book: SpanBook::new(),
        })
    }

    fn write_line(&self, event: &Event) {
        let mut out = self.out.borrow_mut();
        // Log IO failures must not take down a training run; drop the line.
        let _ = writeln!(out, "{}", event.to_jsonl());
    }

    /// Flush buffered lines to disk.
    pub fn flush(&self) {
        let _ = self.out.borrow_mut().flush();
    }
}

impl Recorder for JsonlSink {
    fn record(&self, event: &Event) {
        match event {
            Event::RunStart(_) => self.book.reset(),
            Event::RunEnd(_) => {
                self.write_line(&Event::TimingSummary(self.book.summary()));
            }
            _ => {}
        }
        self.write_line(event);
        // Every finished epoch reaches the file at once, so the log shows
        // how far a run got even if the process is killed (one write per
        // epoch, negligible next to the epoch itself).
        if matches!(event, Event::Epoch(_) | Event::RunEnd(_)) {
            self.flush();
        }
    }

    fn span_enter(&self, name: &'static str) {
        self.book.enter(name);
    }

    fn span_exit(&self, name: &'static str, seconds: f64) {
        let path = self.book.exit(name, seconds);
        self.write_line(&Event::SpanEnd { path, seconds });
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Collects events in memory; the sink integration tests are written
/// against this.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: RefCell<Vec<Event>>,
    book: SpanBook,
}

impl MemorySink {
    /// Fresh, empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Borrow all recorded events in order.
    pub fn events(&self) -> Ref<'_, Vec<Event>> {
        self.events.borrow()
    }

    /// Clone the events of one `"type"` tag.
    pub fn of_kind(&self, kind: &str) -> Vec<Event> {
        self.events
            .borrow()
            .iter()
            .filter(|e| e.kind() == kind)
            .cloned()
            .collect()
    }

    /// Total increments recorded under a counter name.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.events
            .borrow()
            .iter()
            .filter_map(|e| match e {
                Event::Counter { name: n, delta } if n == name => Some(*delta),
                _ => None,
            })
            .sum()
    }
}

impl Recorder for MemorySink {
    fn record(&self, event: &Event) {
        match event {
            Event::RunStart(_) => self.book.reset(),
            Event::RunEnd(_) => {
                let summary = Event::TimingSummary(self.book.summary());
                self.events.borrow_mut().push(summary);
            }
            _ => {}
        }
        self.events.borrow_mut().push(event.clone());
    }

    fn span_enter(&self, name: &'static str) {
        self.book.enter(name);
    }

    fn span_exit(&self, name: &'static str, seconds: f64) {
        let path = self.book.exit(name, seconds);
        self.events
            .borrow_mut()
            .push(Event::SpanEnd { path, seconds });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{RunManifest, RunSummary};
    use crate::json::Json;
    use crate::recorder::span;

    fn manifest() -> RunManifest {
        RunManifest {
            run_id: "t".into(),
            binary: "test".into(),
            dataset: "d".into(),
            model: "m".into(),
            variant: "r".into(),
            seed: 1,
            workspace_version: "0.1.0".into(),
            config: Json::Obj(vec![]),
        }
    }

    fn summary() -> RunSummary {
        RunSummary {
            train_seconds: 0.5,
            converged_at: None,
            epochs_run: 2,
            final_acc: 0.5,
            final_nmi: 0.5,
            final_ari: 0.5,
            degraded: false,
        }
    }

    #[test]
    fn memory_sink_emits_timing_summary_before_run_end() {
        let sink = MemorySink::new();
        sink.record(&Event::RunStart(manifest()));
        {
            let _outer = span(&sink, "clustering");
            let _inner = span(&sink, "step");
        }
        sink.record(&Event::RunEnd(summary()));
        let events = sink.events();
        let kinds: Vec<&str> = events.iter().map(Event::kind).collect();
        assert_eq!(
            kinds,
            vec!["run_start", "span", "span", "timing_summary", "run_end"]
        );
        let Event::TimingSummary(entries) = &events[3] else {
            panic!("expected timing summary");
        };
        assert!(entries.iter().any(|e| e.path == "clustering/step"));
        assert!(entries.iter().any(|e| e.path == "clustering"));
    }

    #[test]
    fn run_start_resets_the_timing_table() {
        let sink = MemorySink::new();
        sink.record(&Event::RunStart(manifest()));
        span(&sink, "a").stop();
        sink.record(&Event::RunEnd(summary()));
        sink.record(&Event::RunStart(manifest()));
        span(&sink, "b").stop();
        sink.record(&Event::RunEnd(summary()));
        let summaries = sink.of_kind("timing_summary");
        let Event::TimingSummary(second) = &summaries[1] else {
            panic!("expected timing summary");
        };
        assert!(second.iter().all(|e| e.path != "a"), "stale span survived");
        assert!(second.iter().any(|e| e.path == "b"));
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join(format!(
            "rgae-obs-test-{}.jsonl",
            crate::recorder::timestamp_ms()
        ));
        let sink = JsonlSink::create(&path).unwrap();
        sink.record(&Event::RunStart(manifest()));
        span(&sink, "clustering").stop();
        sink.count("label_clamp", 2);
        sink.record(&Event::RunEnd(summary()));
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<Event> = text
            .lines()
            .map(|l| Event::from_jsonl(l).expect("parseable line"))
            .collect();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].kind(), "run_start");
        assert_eq!(events.last().unwrap().kind(), "run_end");
        assert!(events.iter().any(|e| e.kind() == "timing_summary"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counter_total_sums_increments() {
        let sink = MemorySink::new();
        sink.count("x", 2);
        sink.count("x", 0); // suppressed: zero deltas are not recorded
        sink.count("x", 3);
        sink.count("y", 1);
        assert_eq!(sink.counter_total("x"), 5);
        assert_eq!(sink.events().len(), 3);
    }
}
