//! Trace sinks: where lifecycle events go.
//!
//! Sinks take `&self` and use interior mutability so one sink can be shared
//! (via `Rc<dyn TraceSink>`) between several emitters — the simulated kernel,
//! the `System` measurement harness, and the host-level runtime all write
//! into the same stream, which is what makes the ordered lifecycle view
//! possible.

use crate::event::{EventRing, TraceEvent};
use crate::snapshot::{Snapshot, StatsSnapshot};
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

/// Consumer of [`TraceEvent`]s.
pub trait TraceSink {
    /// Receives one lifecycle event.
    fn emit(&self, event: &TraceEvent);

    /// Flush any buffered output (no-op for in-memory sinks).
    fn flush(&self) {}
}

/// Shared handle to a sink; cheap to clone, single-threaded (the simulator is
/// single-threaded throughout).
pub type SharedSink = Rc<dyn TraceSink>;

/// The zero-cost default: drops every event.
///
/// Instrumented components hold a `SharedSink` unconditionally; with a
/// `NullSink` the emission path is a virtual call that touches no state and
/// charges no simulated cycles, so tracing-off runs are unperturbed.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&self, _event: &TraceEvent) {}
}

/// A `SharedSink` wrapping [`NullSink`].
pub fn null_sink() -> SharedSink {
    Rc::new(NullSink)
}

/// In-memory ring sink. Keep an `Rc` to it, hand a clone to the builder, and
/// read `events()` after the run.
#[derive(Debug)]
pub struct RingSink {
    ring: RefCell<EventRing>,
}

impl RingSink {
    /// Ring with [`EventRing::DEFAULT_CAPACITY`] slots.
    pub fn new() -> RingSink {
        RingSink::with_capacity(EventRing::DEFAULT_CAPACITY)
    }

    /// Ring holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> RingSink {
        RingSink {
            ring: RefCell::new(EventRing::with_capacity(capacity)),
        }
    }

    /// Snapshot of the buffered events, oldest → newest.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.borrow().iter().copied().collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.ring.borrow().len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.borrow().is_empty()
    }

    /// Events lost to ring overflow (alias of [`RingSink::overwritten`]).
    pub fn dropped(&self) -> u64 {
        self.ring.borrow().dropped()
    }

    /// Oldest events overwritten by ring wrap-around. Lifetime counter:
    /// survives [`RingSink::clear`] and snapshotting.
    pub fn overwritten(&self) -> u64 {
        self.ring.borrow().overwritten()
    }

    /// Lifetime count of events pushed, including overwritten ones.
    pub fn total_pushed(&self) -> u64 {
        self.ring.borrow().total_pushed()
    }

    /// Discards buffered events; the `dropped`/`overwritten` and
    /// `total_pushed` counters survive (see [`EventRing::clear`]).
    pub fn clear(&self) {
        self.ring.borrow_mut().clear();
    }
}

impl Default for RingSink {
    fn default() -> RingSink {
        RingSink::new()
    }
}

impl Snapshot for RingSink {
    /// Ring occupancy and overflow counters — `dropped` > 0 means the ring
    /// wrapped and the oldest events were overwritten (see
    /// [`EventRing::dropped`]).
    fn snapshot(&self) -> StatsSnapshot {
        self.ring.borrow().snapshot()
    }
}

impl TraceSink for RingSink {
    fn emit(&self, event: &TraceEvent) {
        self.ring.borrow_mut().push(*event);
    }
}

/// Writes each event as one JSON object per line to any `Write`.
pub struct JsonLinesSink<W: Write> {
    writer: RefCell<W>,
    seq: RefCell<u64>,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps a writer; one JSON object per emitted event, one per line.
    pub fn new(writer: W) -> JsonLinesSink<W> {
        JsonLinesSink {
            writer: RefCell::new(writer),
            seq: RefCell::new(0),
        }
    }

    /// Consumes the sink and returns the writer (flushing it).
    pub fn into_inner(self) -> W {
        let mut w = self.writer.into_inner();
        let _ = w.flush();
        w
    }
}

impl JsonLinesSink<std::io::Stdout> {
    /// A sink writing to standard output.
    pub fn stdout() -> JsonLinesSink<std::io::Stdout> {
        JsonLinesSink::new(std::io::stdout())
    }
}

impl<W: Write> TraceSink for JsonLinesSink<W> {
    fn emit(&self, event: &TraceEvent) {
        let mut ev = *event;
        let mut seq = self.seq.borrow_mut();
        ev.seq = *seq;
        *seq += 1;
        // A full pipe is not the simulation's problem; drop the line.
        let _ = writeln!(self.writer.borrow_mut(), "{}", ev.to_value());
    }

    fn flush(&self) {
        let _ = self.writer.borrow_mut().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, FaultClass, TracePath};

    fn ev(cycles: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            cycles,
            kind,
            path: TracePath::FastUser,
            class: FaultClass::Breakpoint,
            ..TraceEvent::default()
        }
    }

    #[test]
    fn ring_sink_buffers_in_order() {
        let sink = RingSink::with_capacity(8);
        sink.emit(&ev(10, EventKind::FaultRaised));
        sink.emit(&ev(20, EventKind::Resumed));
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::FaultRaised);
        assert_eq!(events[1].kind, EventKind::Resumed);
        assert!(events[0].seq < events[1].seq);
    }

    #[test]
    fn shared_sink_sees_emissions_from_clones() {
        let ring = Rc::new(RingSink::with_capacity(4));
        let a: SharedSink = ring.clone();
        let b: SharedSink = ring.clone();
        a.emit(&ev(1, EventKind::FaultRaised));
        b.emit(&ev(2, EventKind::KernelEntered));
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let sink = JsonLinesSink::new(Vec::new());
        sink.emit(&ev(5, EventKind::FaultRaised));
        sink.emit(&ev(6, EventKind::Resumed));
        let out = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[1].contains("\"seq\":1"));
        assert!(lines[1].contains("\"event\":\"resumed\""));
    }

    #[test]
    fn ring_sink_snapshot_tracks_drops() {
        let sink = RingSink::with_capacity(2);
        for i in 0..5 {
            sink.emit(&ev(i, EventKind::FaultRaised));
        }
        let s = sink.snapshot();
        assert_eq!(s.get("dropped"), Some(3));
        assert_eq!(s.get("overwritten"), Some(3));
        assert_eq!(s.get("total_pushed"), Some(5));
        assert_eq!(sink.dropped(), 3);
        assert_eq!(sink.overwritten(), 3);
    }

    #[test]
    fn ring_sink_counters_survive_snapshot_and_clear() {
        // Degraded-delivery accounting reads these counters after each
        // injection phase; a snapshot or an inter-phase clear must not
        // silently reset them.
        let sink = RingSink::with_capacity(2);
        for i in 0..6 {
            sink.emit(&ev(i, EventKind::FaultRaised));
        }
        let before = sink.snapshot();
        let after = sink.snapshot();
        assert_eq!(before.get("dropped"), after.get("dropped"));
        assert_eq!(before.get("overwritten"), after.get("overwritten"));
        assert_eq!(before.get("total_pushed"), after.get("total_pushed"));
        sink.clear();
        assert_eq!(sink.dropped(), 4, "clear keeps the loss count");
        assert_eq!(sink.total_pushed(), 6, "clear keeps the push count");
        let s = sink.snapshot();
        assert_eq!(s.get("buffered"), Some(0));
        assert_eq!(s.get("dropped"), Some(4));
        assert_eq!(s.get("overwritten"), Some(4));
    }

    #[test]
    fn null_sink_is_inert() {
        let sink = NullSink;
        for i in 0..100 {
            sink.emit(&ev(i, EventKind::FaultRaised));
        }
        sink.flush();
    }
}
