//! Lightweight span tracing: monotonic-clock spans with parent/child
//! nesting, per-request trace ids, and a bounded in-memory ring of recent
//! span events.
//!
//! A [`Tracer`] hands out ids from atomic counters and timestamps spans
//! against a single `Instant` epoch captured at construction, so span
//! `start_micros` values are mutually comparable and monotonic. Finished
//! spans land in a bounded ring (`Mutex<VecDeque>`): when full, the oldest
//! events are dropped and counted, so a long-lived service keeps the most
//! recent window instead of growing without bound.
//!
//! Spans are plain data — no lifetimes, no guards. A layer that wants its
//! children attributed starts a span, passes [`ActiveSpan::ctx`] down, and
//! finishes the span itself:
//!
//! ```
//! use systolic_obs::Tracer;
//!
//! let tracer = Tracer::new(1024);
//! let trace = tracer.new_trace();
//! let request = tracer.start(trace, None, "request");
//! let stage = tracer.start(trace, Some(request.id()), "routes");
//! tracer.finish(stage);
//! tracer.finish(request);
//! let events = tracer.snapshot();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[0].name, "routes");
//! assert_eq!(events[0].parent, Some(events[1].span));
//! ```

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies one request's span tree. Echoed on wire responses so a span
/// log can be joined against service output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within a tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// The (trace, parent-span) pair a layer passes down so children nest
/// correctly.
#[derive(Debug, Clone, Copy)]
pub struct SpanCtx {
    /// Trace the child spans belong to.
    pub trace: TraceId,
    /// Span to parent the children under.
    pub parent: SpanId,
}

/// An in-flight span. Plain data: finish it via [`Tracer::finish`].
#[derive(Debug)]
pub struct ActiveSpan {
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start: Instant,
    start_micros: u64,
}

impl ActiveSpan {
    /// This span's id.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// This span's trace.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// Context for parenting children under this span.
    pub fn ctx(&self) -> SpanCtx {
        SpanCtx {
            trace: self.trace,
            parent: self.id,
        }
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// Parent span, if nested.
    pub parent: Option<SpanId>,
    /// Static span name (e.g. `"request"`, `"routes"`, `"verify"`).
    pub name: &'static str,
    /// Microseconds since the tracer's epoch at span start.
    pub start_micros: u64,
    /// Span duration in microseconds.
    pub duration_micros: u64,
}

impl SpanEvent {
    /// Renders the event as one JSON object (for JSONL span logs).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"trace\":{},\"span\":{},\"parent\":",
            self.trace.0, self.span.0
        );
        match self.parent {
            Some(p) => {
                let _ = write!(out, "{}", p.0);
            }
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}}}",
            self.name, self.start_micros, self.duration_micros
        );
        out
    }
}

/// Issues trace/span ids and keeps a bounded ring of finished spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    capacity: usize,
    dropped: AtomicU64,
    ring: Mutex<VecDeque<SpanEvent>>,
}

/// Default ring capacity: enough for several thousand requests' span trees.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

impl Default for Tracer {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl Tracer {
    /// Creates a tracer whose ring keeps at most `capacity` finished spans.
    /// With `capacity` 0 it keeps none: ids and span timings still work,
    /// and every finished span is counted as dropped without taking the
    /// ring lock.
    pub fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            capacity,
            dropped: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
        }
    }

    /// Allocates a fresh trace id.
    pub fn new_trace(&self) -> TraceId {
        // lint: relaxed-ok(id allocation; fetch_add atomicity alone guarantees uniqueness)
        TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    /// Starts a span under `trace`, optionally parented.
    pub fn start(&self, trace: TraceId, parent: Option<SpanId>, name: &'static str) -> ActiveSpan {
        let start = Instant::now();
        ActiveSpan {
            trace,
            // lint: relaxed-ok(id allocation; fetch_add atomicity alone guarantees uniqueness)
            id: SpanId(self.next_span.fetch_add(1, Ordering::Relaxed)),
            parent,
            name,
            start,
            start_micros: start.duration_since(self.epoch).as_micros() as u64,
        }
    }

    /// Finishes a span, recording it into the ring.
    pub fn finish(&self, span: ActiveSpan) {
        let duration = span.start.elapsed().as_micros() as u64;
        self.record(SpanEvent {
            trace: span.trace,
            span: span.id,
            parent: span.parent,
            name: span.name,
            start_micros: span.start_micros,
            duration_micros: duration,
        });
    }

    /// Pushes a prebuilt event into the ring (oldest dropped when full).
    pub fn record(&self, event: SpanEvent) {
        if self.capacity == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(drop statistic)
            return;
        }
        // lint: panic-ok(ring mutex poisoning means a panic mid-push; unrecoverable)
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(drop statistic)
        }
        ring.push_back(event);
    }

    /// Copies the ring's current contents, oldest first.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        // lint: panic-ok(ring mutex poisoning means a panic mid-push; unrecoverable)
        let ring = self.ring.lock().expect("trace ring poisoned");
        ring.iter().cloned().collect()
    }

    /// Drains the ring, returning its contents oldest first.
    pub fn drain(&self) -> Vec<SpanEvent> {
        // lint: panic-ok(ring mutex poisoning means a panic mid-push; unrecoverable)
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        ring.drain(..).collect()
    }

    /// Number of events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        // lint: relaxed-ok(monitoring read of a statistic; staleness acceptable)
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let tracer = Tracer::new(16);
        let trace = tracer.new_trace();
        let parent = tracer.start(trace, None, "request");
        let parent_id = parent.id();
        let child = tracer.start(trace, Some(parent_id), "plan");
        tracer.finish(child);
        tracer.finish(parent);

        let events = tracer.snapshot();
        assert_eq!(events.len(), 2);
        let child_ev = &events[0];
        let parent_ev = &events[1];
        assert_eq!(child_ev.parent, Some(parent_ev.span));
        assert_eq!(parent_ev.parent, None);
        assert_eq!(child_ev.trace, parent_ev.trace);
        assert!(child_ev.start_micros >= parent_ev.start_micros);

        let line = child_ev.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"name\":\"plan\""));
        assert!(line.contains(&format!("\"parent\":{}", parent_ev.span.0)));
        assert!(parent_ev.to_json_line().contains("\"parent\":null"));
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let tracer = Tracer::new(4);
        let trace = tracer.new_trace();
        for _ in 0..10 {
            let span = tracer.start(trace, None, "s");
            tracer.finish(span);
        }
        assert_eq!(tracer.snapshot().len(), 4);
        assert_eq!(tracer.dropped(), 6);
        // Oldest dropped: the survivors are the last four spans issued.
        let ids: Vec<u64> = tracer.snapshot().iter().map(|e| e.span.0).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
        assert_eq!(tracer.drain().len(), 4);
        assert!(tracer.snapshot().is_empty());
    }

    #[test]
    fn zero_capacity_keeps_no_spans() {
        let tracer = Tracer::new(0);
        let trace = tracer.new_trace();
        for _ in 0..3 {
            let span = tracer.start(trace, None, "s");
            tracer.finish(span);
        }
        assert!(tracer.snapshot().is_empty());
        assert_eq!(tracer.dropped(), 3);
    }

    #[test]
    fn trace_ids_are_unique() {
        let tracer = Tracer::default();
        let a = tracer.new_trace();
        let b = tracer.new_trace();
        assert_ne!(a, b);
    }
}
