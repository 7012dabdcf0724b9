//! Chrome trace-event (Perfetto / `chrome://tracing`) export.
//!
//! Converts the repo's two timing sources into one timeline document:
//!
//! - **Lifecycle events** ([`TraceEvent`] streams from an `EventRing` or
//!   `RingSink`): each fault's six-stage lifecycle becomes three `"X"`
//!   complete events — `deliver` (fault-raised → handler-entered), `handler`
//!   (handler-entered → handler-returned), and `return` (handler-returned →
//!   resumed) — plus an `"i"` instant at the fault itself.
//! - **Profiler spans** ([`RegionSpan`]s from `efex_mips::Profiler`): each
//!   stay in a labeled guest-kernel region becomes an `"X"` event on its own
//!   thread row, so the Table 3 phase structure is visible under the
//!   lifecycle spans.
//!
//! Timestamps are microseconds (the trace-event format's native unit),
//! converted from simulated cycles at the machine clock rate.

use efex_mips::RegionSpan;
use efex_trace::jsonval::Value;
use efex_trace::{EventKind, TraceEvent};

/// Thread id used for lifecycle phase spans.
pub const TID_LIFECYCLE: u32 = 1;
/// Thread id used for guest-kernel profiler region spans.
pub const TID_REGIONS: u32 = 2;
/// First thread id for per-tenant fleet rows ([`ChromeTrace::push_tenant_lifecycle`]);
/// tenant `i` conventionally lands on `TID_TENANT_BASE + i`.
pub const TID_TENANT_BASE: u32 = 16;

/// Builder for a trace-event-format JSON document.
#[derive(Clone, Debug)]
pub struct ChromeTrace {
    clock_mhz: f64,
    /// Trace events, in emission order.
    events: Vec<Value>,
}

impl ChromeTrace {
    /// A trace whose cycle → µs conversion uses the given clock rate.
    pub fn new(clock_mhz: f64) -> ChromeTrace {
        assert!(clock_mhz > 0.0, "clock rate must be positive");
        let mut t = ChromeTrace {
            clock_mhz,
            events: Vec::new(),
        };
        t.push_metadata("process_name", "efex");
        t.push_thread_name(TID_LIFECYCLE, "exception lifecycle");
        t.push_thread_name(TID_REGIONS, "guest kernel regions");
        t
    }

    fn us(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_mhz
    }

    /// The fields every trace event starts with.
    fn event(name: &str, ph: &str, tid: u32) -> Value {
        Value::object()
            .with("name", name)
            .with("ph", ph)
            .with("pid", 1u32)
            .with("tid", tid)
    }

    fn push_metadata(&mut self, name: &str, value: &str) {
        self.events
            .push(Self::event(name, "M", 0).with("args", Value::object().with("name", value)));
    }

    fn push_thread_name(&mut self, tid: u32, name: &str) {
        self.events.push(
            Self::event("thread_name", "M", tid).with("args", Value::object().with("name", name)),
        );
    }

    fn push_complete(&mut self, tid: u32, name: &str, ts_us: f64, dur_us: f64, args: Value) {
        self.events.push(
            Self::event(name, "X", tid)
                .with("ts", ts_us)
                .with("dur", dur_us)
                .with("args", args),
        );
    }

    fn push_instant(&mut self, tid: u32, name: &str, ts_us: f64, args: Value) {
        self.events.push(
            Self::event(name, "i", tid)
                .with("ts", ts_us)
                .with("s", "t")
                .with("args", args),
        );
    }

    /// Folds a stream of lifecycle events (oldest → newest, as produced by
    /// `EventRing::iter` or `RingSink::events`) into phase spans. Incomplete
    /// lifecycles at the stream edges (a ring that wrapped mid-fault) emit
    /// whatever phases are complete and drop the rest.
    pub fn push_lifecycle(&mut self, events: &[TraceEvent]) {
        self.push_lifecycle_on(TID_LIFECYCLE, events);
    }

    /// Folds a tenant's lifecycle stream onto its own named thread row —
    /// the multi-tenant (fleet) variant of [`ChromeTrace::push_lifecycle`].
    /// Each tenant gets a distinct `tid` (conventionally
    /// [`TID_TENANT_BASE`]` + tenant index`), so N tenants render as N
    /// parallel timeline rows in one document.
    pub fn push_tenant_lifecycle(&mut self, tid: u32, name: &str, events: &[TraceEvent]) {
        self.push_thread_name(tid, name);
        self.push_lifecycle_on(tid, events);
    }

    fn push_lifecycle_on(&mut self, tid: u32, events: &[TraceEvent]) {
        let mut raised: Option<&TraceEvent> = None;
        let mut handler_entered: Option<&TraceEvent> = None;
        let mut handler_returned: Option<&TraceEvent> = None;
        for ev in events {
            let args = Value::object()
                .with("path", ev.path.as_str())
                .with("class", ev.class.as_str())
                .with("pc", format!("{:#010x}", ev.pc))
                .with("vaddr", format!("{:#010x}", ev.vaddr));
            match ev.kind {
                EventKind::FaultRaised => {
                    self.push_instant(
                        tid,
                        &format!("fault:{}", ev.class),
                        self.us(ev.cycles),
                        args,
                    );
                    raised = Some(ev);
                    handler_entered = None;
                    handler_returned = None;
                }
                EventKind::HandlerEntered => {
                    if let Some(start) = raised {
                        self.push_complete(
                            tid,
                            "deliver",
                            self.us(start.cycles),
                            self.us(ev.cycles.saturating_sub(start.cycles)),
                            args,
                        );
                    }
                    handler_entered = Some(ev);
                }
                EventKind::HandlerReturned => {
                    if let Some(start) = handler_entered.take() {
                        self.push_complete(
                            tid,
                            "handler",
                            self.us(start.cycles),
                            self.us(ev.cycles.saturating_sub(start.cycles)),
                            args,
                        );
                    }
                    handler_returned = Some(ev);
                }
                EventKind::Resumed => {
                    if let Some(start) = handler_returned.take() {
                        self.push_complete(
                            tid,
                            "return",
                            self.us(start.cycles),
                            self.us(ev.cycles.saturating_sub(start.cycles)),
                            args,
                        );
                    }
                    raised = None;
                }
                EventKind::KernelEntered | EventKind::StateSaved => {
                    // Interior stages; visible via the profiler region row.
                }
            }
        }
    }

    /// Adds profiler region stays on their own thread row.
    pub fn push_profile_spans(&mut self, spans: &[RegionSpan]) {
        for s in spans {
            let args = Value::object().with("instructions", s.instructions);
            self.push_complete(
                TID_REGIONS,
                &s.name,
                self.us(s.start_cycles),
                self.us(s.cycles()),
                args,
            );
        }
    }

    /// Number of trace events emitted so far (including metadata).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been emitted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The document in JSON-object trace format.
    pub fn to_value(&self) -> Value {
        Value::object().with("traceEvents", Value::Arr(self.events.clone()))
    }

    /// Serializes the document, one trace event per line.
    pub fn to_json(&self) -> String {
        self.to_value().pretty(2) + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonval;
    use efex_trace::{FaultClass, TracePath};

    fn lifecycle(base: u64) -> Vec<TraceEvent> {
        EventKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &kind)| TraceEvent {
                cycles: base + 10 * i as u64,
                kind,
                path: TracePath::FastUser,
                class: FaultClass::Breakpoint,
                ..TraceEvent::default()
            })
            .collect()
    }

    #[test]
    fn lifecycle_produces_three_phase_spans() {
        let mut t = ChromeTrace::new(25.0);
        let before = t.len();
        t.push_lifecycle(&lifecycle(1000));
        // 1 instant + 3 complete spans.
        assert_eq!(t.len() - before, 4);
        let doc = jsonval::parse(&t.to_json()).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, ["deliver", "handler", "return"]);
    }

    #[test]
    fn spans_are_monotonic_and_durations_nonnegative() {
        let mut t = ChromeTrace::new(25.0);
        t.push_lifecycle(&lifecycle(1000));
        t.push_lifecycle(&lifecycle(2000));
        let doc = jsonval::parse(&t.to_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let mut last_ts = f64::MIN;
        for e in events {
            if e.get("ph").and_then(|p| p.as_str()) != Some("X") {
                continue;
            }
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            let dur = e.get("dur").unwrap().as_f64().unwrap();
            assert!(ts >= last_ts, "X events must be emitted in time order");
            assert!(dur >= 0.0);
            // deliver starts at the fault and handler follows it, so
            // ts + dur never precedes ts of the next span in the same fault.
            last_ts = ts;
        }
    }

    #[test]
    fn incomplete_lifecycle_from_wrapped_ring_is_tolerated() {
        let mut t = ChromeTrace::new(25.0);
        // Stream starts mid-fault: handler-returned + resumed only.
        let tail: Vec<TraceEvent> = lifecycle(500).split_off(4);
        t.push_lifecycle(&tail);
        let doc = jsonval::parse(&t.to_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let spans: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(spans, ["return"], "only the complete phase is emitted");
    }

    #[test]
    fn tenant_lifecycles_land_on_their_own_rows() {
        let mut t = ChromeTrace::new(25.0);
        t.push_tenant_lifecycle(TID_TENANT_BASE, "tenant 0: gc", &lifecycle(1000));
        t.push_tenant_lifecycle(TID_TENANT_BASE + 1, "tenant 1: dsm", &lifecycle(1000));
        let doc = jsonval::parse(&t.to_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        for (tid, name) in [
            (TID_TENANT_BASE, "tenant 0: gc"),
            (TID_TENANT_BASE + 1, "tenant 1: dsm"),
        ] {
            assert!(
                events.iter().any(|e| {
                    e.get("name").and_then(|n| n.as_str()) == Some("thread_name")
                        && e.get("tid").unwrap().as_u64() == Some(u64::from(tid))
                        && e.get("args").unwrap().get("name").unwrap().as_str() == Some(name)
                }),
                "row {tid} named {name:?}"
            );
            let spans: Vec<&str> = events
                .iter()
                .filter(|e| {
                    e.get("ph").and_then(|p| p.as_str()) == Some("X")
                        && e.get("tid").unwrap().as_u64() == Some(u64::from(tid))
                })
                .map(|e| e.get("name").unwrap().as_str().unwrap())
                .collect();
            assert_eq!(spans, ["deliver", "handler", "return"], "row {tid}");
        }
    }

    #[test]
    fn profile_spans_land_on_region_thread() {
        let mut t = ChromeTrace::new(25.0);
        t.push_profile_spans(&[RegionSpan {
            name: "save_state".into(),
            start_cycles: 100,
            end_cycles: 150,
            instructions: 25,
        }]);
        let doc = jsonval::parse(&t.to_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let span = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("save_state"))
            .expect("region span present");
        assert_eq!(span.get("tid").unwrap().as_u64(), Some(TID_REGIONS as u64));
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(4.0)); // 100 cyc @ 25 MHz
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(2.0)); // 50 cyc
        assert_eq!(
            span.get("args")
                .unwrap()
                .get("instructions")
                .unwrap()
                .as_u64(),
            Some(25)
        );
    }
}
