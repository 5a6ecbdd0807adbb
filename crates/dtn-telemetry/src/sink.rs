//! Pluggable event exporters.
//!
//! A [`Recorder`](crate::recorder::Recorder) can stream every recorded
//! event into an [`EventSink`]: JSONL for full fidelity, or an
//! in-memory sink for tests. Sink errors are reported back to the
//! recorder, which stores the first one rather than panicking
//! mid-simulation.

use crate::event::SimEvent;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Receives every recorded event as it happens.
pub trait EventSink {
    /// Handles one event. Errors abort further exporting (the recorder
    /// keeps simulating and stores the error).
    fn on_event(&mut self, ev: &SimEvent) -> io::Result<()>;

    /// Flushes buffered output (called once at end of run).
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Writes one JSON object per line — the full-fidelity export format
/// (see `SimEvent::to_jsonl` for the schema).
pub struct JsonlSink<W: Write> {
    w: W,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL file at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(JsonlSink {
            w: BufWriter::new(File::create(path)?),
        })
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(w: W) -> Self {
        JsonlSink { w }
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn on_event(&mut self, ev: &SimEvent) -> io::Result<()> {
        self.w.write_all(ev.to_jsonl().as_bytes())?;
        self.w.write_all(b"\n")
    }

    fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

/// Collects events into a shared vector — the recorder owns the sink,
/// so tests keep a cloned handle to read the captured stream afterwards.
#[derive(Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<SimEvent>>>,
}

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of everything captured so far.
    pub fn events(&self) -> Vec<SimEvent> {
        self.events.lock().expect("sink poisoned").clone()
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("sink poisoned").len()
    }

    /// True before the first captured event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for MemorySink {
    fn on_event(&mut self, ev: &SimEvent) -> io::Result<()> {
        self.events.lock().expect("sink poisoned").push(ev.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<SimEvent> {
        vec![
            SimEvent::ContactUp { t: 1.0, a: 0, b: 1 },
            SimEvent::Delivered {
                t: 2.0,
                msg: 5,
                from: 0,
                hops: 1,
                latency: 2.0,
                first: true,
            },
        ]
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut buf = Vec::new();
        {
            let mut s = JsonlSink::new(&mut buf);
            for ev in sample() {
                s.on_event(&ev).unwrap();
            }
            s.flush().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSONL");
            assert!(v["kind"].as_str().is_some());
        }
    }

    #[test]
    fn memory_sink_shares_captures() {
        let sink = MemorySink::new();
        let mut handle = sink.clone();
        for ev in sample() {
            handle.on_event(&ev).unwrap();
        }
        assert_eq!(sink.len(), 2);
        assert!(!sink.is_empty());
        assert_eq!(sink.events()[1].kind(), "delivered");
    }
}
