//! `rgae-obs`: structured run tracing for the R-GAE training stack.
//!
//! A dependency-light observability layer: training code emits typed
//! [`Event`]s through a [`Recorder`], and sinks decide where they go —
//! a JSONL file ([`JsonlSink`]) or memory ([`MemorySink`], for tests).
//! [`SpanTimer`]s measure nested phases (pretrain, Ξ selection, Υ rewrite,
//! clustering init, eval, Λ diagnostics) and every run ends with an
//! aggregated timing table; counters and gauges capture the |Ω|
//! trajectory, edge edits, and label-clamp events; a [`RunManifest`]
//! records what ran with which config and seed.
//!
//! The default recorder is [`NoopRecorder`] (`enabled() == false`), so the
//! instrumented trainer costs two `Instant` reads per span when tracing is
//! off.
//!
//! # Example
//!
//! ```
//! use rgae_obs::{span, Event, MemorySink, Recorder};
//!
//! let sink = MemorySink::new();
//! let rec: &dyn Recorder = &sink;
//! let timer = span(rec, "clustering");
//! rec.count("edges_added", 12);
//! rec.gauge("omega_size", Some(0), 310.0);
//! let seconds = timer.stop();
//! assert!(seconds >= 0.0);
//! assert_eq!(sink.counter_total("edges_added"), 12);
//! ```

mod event;
mod json;
mod recorder;
mod sinks;

pub use event::{EpochEvent, Event, RunManifest, RunSummary, TimingEntry};
pub use json::{Json, ParseError};
pub use recorder::{span, timestamp_ms, NoopRecorder, Recorder, SpanBook, SpanTimer, NOOP};
pub use sinks::{JsonlSink, MemorySink};
