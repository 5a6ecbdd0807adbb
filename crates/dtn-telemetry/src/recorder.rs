//! The recorder handle the simulator carries through its hot path.
//!
//! [`Recorder::record`] takes a **closure** producing the event, not the
//! event itself: when the recorder is disabled the closure is never
//! called, so a disabled recorder costs one predictable branch per
//! emission site — no allocation, no formatting, no field conversion.

use crate::event::{EventTotals, SimEvent};
use crate::metrics::MetricsRegistry;
use crate::ring::EventRing;
use crate::sink::EventSink;
use crate::timeseries::{TimePoint, TimeSeries};

/// Telemetry state for one simulation run.
pub struct Recorder {
    enabled: bool,
    totals: EventTotals,
    ring: EventRing,
    sink: Option<Box<dyn EventSink>>,
    sink_error: Option<String>,
    metrics: MetricsRegistry,
    timeseries: Option<TimeSeries>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Recorder {
    /// A recorder that ignores every event — the simulator's default.
    /// Time-series sampling (an independent, explicitly enabled feature)
    /// still works on a disabled recorder.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            totals: EventTotals::default(),
            ring: EventRing::new(0),
            sink: None,
            sink_error: None,
            metrics: MetricsRegistry::new(),
            timeseries: None,
        }
    }

    /// An enabled recorder retaining the last `ring_capacity` events in
    /// memory (0 for counting-only telemetry).
    pub fn enabled(ring_capacity: usize) -> Self {
        Recorder {
            enabled: true,
            ring: EventRing::new(ring_capacity),
            ..Self::disabled()
        }
    }

    /// Attaches an event sink (builder style).
    pub fn with_sink(mut self, sink: Box<dyn EventSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event. `make` runs only when the recorder is enabled.
    #[inline]
    pub fn record<F: FnOnce() -> SimEvent>(&mut self, make: F) {
        if !self.enabled {
            return;
        }
        self.push(make());
    }

    #[inline(never)]
    fn push(&mut self, ev: SimEvent) {
        self.totals.bump(&ev);
        if let (Some(sink), None) = (self.sink.as_mut(), self.sink_error.as_ref()) {
            if let Err(e) = sink.on_event(&ev) {
                self.sink_error = Some(e.to_string());
            }
        }
        self.ring.push(ev);
    }

    /// Per-kind counters accumulated so far.
    pub fn totals(&self) -> &EventTotals {
        &self.totals
    }

    /// The retained event tail.
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// Read access to the metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Write access to the metrics registry (registration and updates).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Flushes the sink, capturing any error.
    pub fn flush(&mut self) {
        if let Some(sink) = self.sink.as_mut() {
            if let Err(e) = sink.flush() {
                self.sink_error.get_or_insert_with(|| e.to_string());
            }
        }
    }

    /// The first sink error, if exporting failed.
    pub fn sink_error(&self) -> Option<&str> {
        self.sink_error.as_deref()
    }

    // ------------------------------------------------------------------
    // Time series (independent of the event-recording switch).
    // ------------------------------------------------------------------

    /// Enables time-series sampling every `sample_every` simulated
    /// seconds.
    pub fn enable_timeseries(&mut self, sample_every: f64) {
        self.timeseries = Some(TimeSeries::new(sample_every));
    }

    /// Whether a time-series sample is due at `now_secs`.
    #[inline]
    pub fn timeseries_due(&self, now_secs: f64) -> bool {
        self.timeseries.as_ref().is_some_and(|ts| ts.due(now_secs))
    }

    /// Records one time-series sample.
    pub fn record_timepoint(&mut self, point: TimePoint) {
        if let Some(ts) = self.timeseries.as_mut() {
            ts.record(point);
        }
    }

    /// Takes the sampled series out of the recorder.
    pub fn take_timeseries(&mut self) -> Option<TimeSeries> {
        self.timeseries.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    fn contact(t: f64) -> SimEvent {
        SimEvent::ContactUp { t, a: 0, b: 1 }
    }

    #[test]
    fn disabled_recorder_never_builds_the_event() {
        let mut r = Recorder::disabled();
        let mut built = false;
        r.record(|| {
            built = true;
            contact(1.0)
        });
        assert!(!built, "closure ran on a disabled recorder");
        assert_eq!(r.totals().total(), 0);
        assert!(r.ring().is_empty());
    }

    #[test]
    fn enabled_recorder_counts_rings_and_sinks() {
        let sink = MemorySink::new();
        let mut r = Recorder::enabled(2).with_sink(Box::new(sink.clone()));
        assert!(r.is_enabled());
        for k in 0..3 {
            r.record(|| contact(k as f64));
        }
        assert_eq!(r.totals().contacts_up, 3);
        assert_eq!(r.ring().len(), 2, "ring bounded");
        assert_eq!(r.ring().overwritten(), 1);
        assert_eq!(sink.len(), 3, "sink sees everything");
        r.flush();
        assert!(r.sink_error().is_none());
    }

    #[test]
    fn sink_errors_are_stored_not_thrown() {
        struct Failing;
        impl EventSink for Failing {
            fn on_event(&mut self, _: &SimEvent) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }
        let mut r = Recorder::enabled(4).with_sink(Box::new(Failing));
        r.record(|| contact(1.0));
        r.record(|| contact(2.0));
        assert_eq!(r.totals().contacts_up, 2, "recording continues");
        assert!(r.sink_error().unwrap().contains("disk full"));
    }

    #[test]
    fn timeseries_works_on_a_disabled_recorder() {
        let mut r = Recorder::disabled();
        assert!(!r.timeseries_due(0.0));
        r.enable_timeseries(10.0);
        assert!(r.timeseries_due(0.0));
        r.record_timepoint(TimePoint {
            t: 0.0,
            mean_occupancy: 0.5,
            max_occupancy: 0.5,
            live_contacts: 1,
            live_messages: 1,
            total_copies: 1,
        });
        assert!(!r.timeseries_due(5.0));
        let ts = r.take_timeseries().unwrap();
        assert_eq!(ts.len(), 1);
        assert!(r.take_timeseries().is_none());
    }

    #[test]
    fn metrics_live_on_the_recorder() {
        let mut r = Recorder::enabled(0);
        let c = r.metrics_mut().counter("events");
        r.metrics_mut().inc(c, 2);
        assert_eq!(r.metrics().counter_value(c), 2);
    }
}
