//! Exception lifecycle events and the fixed-capacity ring that stores them.

use crate::jsonval::Value;
use crate::snapshot::{Snapshot, StatsSnapshot};
use std::fmt;

/// Where in the exception lifecycle an event was emitted.
///
/// The six stages mirror the paper's Table 3 phase breakdown: the hardware
/// raises the fault, the kernel vectors in, saves the faulting context,
/// transfers to the user handler, the handler returns, and the faulting
/// thread resumes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
#[repr(u8)]
pub enum EventKind {
    /// The hardware latched an exception.
    #[default]
    FaultRaised = 0,
    /// The kernel's vector began executing.
    KernelEntered = 1,
    /// The faulting context (scratch registers, EPC, cause) is saved.
    StateSaved = 2,
    /// Control transferred to the user-level handler.
    HandlerEntered = 3,
    /// The user-level handler finished.
    HandlerReturned = 4,
    /// The faulting thread resumed at (or past) the faulting instruction.
    Resumed = 5,
}

impl EventKind {
    /// Every kind, in lifecycle order.
    pub const ALL: [EventKind; 6] = [
        EventKind::FaultRaised,
        EventKind::KernelEntered,
        EventKind::StateSaved,
        EventKind::HandlerEntered,
        EventKind::HandlerReturned,
        EventKind::Resumed,
    ];

    /// Stable kebab-case label used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::FaultRaised => "fault-raised",
            EventKind::KernelEntered => "kernel-entered",
            EventKind::StateSaved => "state-saved",
            EventKind::HandlerEntered => "handler-entered",
            EventKind::HandlerReturned => "handler-returned",
            EventKind::Resumed => "resumed",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The delivery path an event travelled, mirroring `efex_core::DeliveryPath`
/// (duplicated here so the tracer sits below `efex-core` in the crate graph).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
#[repr(u8)]
pub enum TracePath {
    /// Ultrix-style signal delivery.
    UnixSignals = 0,
    /// The paper's fast user-level delivery (§3.2).
    #[default]
    FastUser = 1,
    /// Hardware-vectored user delivery (§3.3).
    HardwareVectored = 2,
}

impl TracePath {
    /// Every delivery path.
    pub const ALL: [TracePath; 3] = [
        TracePath::UnixSignals,
        TracePath::FastUser,
        TracePath::HardwareVectored,
    ];

    /// Stable kebab-case label used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            TracePath::UnixSignals => "unix-signals",
            TracePath::FastUser => "fast-user",
            TracePath::HardwareVectored => "hardware-vectored",
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for TracePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Coarse classification of what faulted, used to key [`crate::Metrics`].
///
/// The first four variants correspond to `efex_core::ExceptionKind` (the
/// Table 2 microbenchmark kinds); the rest cover traffic the kernel sees
/// outside the microbenchmarks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
#[repr(u8)]
pub enum FaultClass {
    /// `break` instruction (the null-exception benchmark).
    #[default]
    Breakpoint = 0,
    /// Write to a write-protected page.
    WriteProtect = 1,
    /// Access to a protected subpage (§3.2.4).
    Subpage = 2,
    /// Unaligned access used for pointer swizzling (§4.2.2).
    Unaligned = 3,
    /// TLB refill handled entirely in the kernel.
    TlbMiss = 4,
    /// Page fault serviced by the kernel (page-in).
    PageFault = 5,
    /// Everything else (syscalls, arithmetic traps, …).
    Other = 6,
}

impl FaultClass {
    /// Every fault class.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::Breakpoint,
        FaultClass::WriteProtect,
        FaultClass::Subpage,
        FaultClass::Unaligned,
        FaultClass::TlbMiss,
        FaultClass::PageFault,
        FaultClass::Other,
    ];

    /// Stable kebab-case label used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::Breakpoint => "breakpoint",
            FaultClass::WriteProtect => "write-protect",
            FaultClass::Subpage => "subpage",
            FaultClass::Unaligned => "unaligned",
            FaultClass::TlbMiss => "tlb-miss",
            FaultClass::PageFault => "page-fault",
            FaultClass::Other => "other",
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One exception lifecycle event.
///
/// `seq` is assigned by the consuming sink (emitters leave it 0), so events
/// from several emitters sharing a sink still order correctly.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TraceEvent {
    /// Sink-assigned sequence number.
    pub seq: u64,
    /// Cycle timestamp (simulated machine cycles, or host-charged cycles for
    /// the host-level runtime).
    pub cycles: u64,
    /// Lifecycle stage.
    pub kind: EventKind,
    /// Delivery path the exception travelled.
    pub path: TracePath,
    /// Coarse fault classification.
    pub class: FaultClass,
    /// Raw `Cause.ExcCode` value (0–12 on the R3000).
    pub exc_code: u8,
    /// Faulting virtual address, or 0 when not applicable.
    pub vaddr: u32,
    /// Faulting program counter, or 0 when not applicable.
    pub pc: u32,
}

impl TraceEvent {
    /// The event as a JSON object; addresses are `0x`-prefixed hex strings.
    pub fn to_value(&self) -> Value {
        Value::object()
            .with("seq", self.seq)
            .with("cycles", self.cycles)
            .with("event", self.kind.as_str())
            .with("path", self.path.as_str())
            .with("class", self.class.as_str())
            .with("exc_code", self.exc_code)
            .with("vaddr", format!("{:#010x}", self.vaddr))
            .with("pc", format!("{:#010x}", self.pc))
    }
}

/// Fixed-capacity ring of [`TraceEvent`]s.
///
/// Storage is allocated once at construction; pushing never allocates. When
/// full, the oldest event is overwritten and `dropped` is incremented, so the
/// ring always holds the most recent `capacity` events.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<TraceEvent>,
    /// Nominal capacity as requested at construction. `Vec::with_capacity`
    /// may over-allocate, so the ring tracks the requested size itself —
    /// both the wrap point and the reported `capacity` stay exact.
    cap: usize,
    /// Index of the oldest event (only meaningful once full).
    head: usize,
    len: usize,
    overwritten: u64,
    next_seq: u64,
}

impl EventRing {
    /// Default ring capacity used by [`crate::RingSink::new`].
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// An empty ring holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> EventRing {
        assert!(capacity > 0, "EventRing capacity must be positive");
        EventRing {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            len: 0,
            overwritten: 0,
            next_seq: 0,
        }
    }

    /// Appends an event, assigning its sequence number. Overwrites the oldest
    /// event when full.
    pub fn push(&mut self, mut ev: TraceEvent) {
        ev.seq = self.next_seq;
        self.next_seq += 1;
        if self.len < self.cap {
            self.buf.push(ev);
            self.len += 1;
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.overwritten += 1;
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of events the ring holds before overwriting.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of events lost because the ring was full (alias of
    /// [`EventRing::overwritten`], kept for existing callers).
    pub fn dropped(&self) -> u64 {
        self.overwritten
    }

    /// Number of oldest events overwritten by a wrap of the full ring.
    /// Lifetime counter: it survives [`EventRing::clear`] and snapshotting,
    /// so loss stays observable across measurement phases.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Total events ever pushed (equals the next sequence number).
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
    }

    /// Iterates oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let (wrapped, start) = self.buf.split_at(self.head.min(self.len));
        start.iter().chain(wrapped.iter())
    }

    /// Discards the buffered events. The lifetime counters — `overwritten`
    /// (`dropped`) and `total_pushed` — deliberately survive: clearing the
    /// buffer between phases must not silently erase evidence of loss.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.len = 0;
    }
}

impl Snapshot for EventRing {
    /// Ring occupancy and overflow counters. A nonzero `overwritten` (alias
    /// `dropped`) makes overflow observable: the ring silently overwrote that
    /// many oldest events, so any report built from the buffer is a suffix of
    /// the run. Taking a snapshot never resets any counter.
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::new("event-ring")
            .counter("capacity", self.capacity() as u64)
            .counter("buffered", self.len() as u64)
            .counter("total_pushed", self.total_pushed())
            .counter("dropped", self.dropped())
            .counter("overwritten", self.overwritten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycles: u64) -> TraceEvent {
        TraceEvent {
            cycles,
            ..TraceEvent::default()
        }
    }

    #[test]
    fn ring_keeps_insertion_order_before_wrap() {
        let mut r = EventRing::with_capacity(4);
        for c in 0..3 {
            r.push(ev(c));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
        let cycles: Vec<u64> = r.iter().map(|e| e.cycles).collect();
        assert_eq!(cycles, [0, 1, 2]);
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
    }

    #[test]
    fn ring_overwrites_oldest_on_wrap() {
        let mut r = EventRing::with_capacity(4);
        for c in 0..10 {
            r.push(ev(c));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.total_pushed(), 10);
        let cycles: Vec<u64> = r.iter().map(|e| e.cycles).collect();
        assert_eq!(cycles, [6, 7, 8, 9], "ring must retain the newest events");
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9]);
    }

    #[test]
    fn ring_wraps_repeatedly_without_allocating() {
        let mut r = EventRing::with_capacity(3);
        let cap_ptr = r.buf.as_ptr();
        for c in 0..1000 {
            r.push(ev(c));
        }
        assert_eq!(r.buf.as_ptr(), cap_ptr, "pushing must never reallocate");
        let cycles: Vec<u64> = r.iter().map(|e| e.cycles).collect();
        assert_eq!(cycles, [997, 998, 999]);
    }

    #[test]
    fn clear_resets_but_keeps_sequence_monotonic() {
        let mut r = EventRing::with_capacity(2);
        r.push(ev(0));
        r.push(ev(1));
        r.clear();
        assert!(r.is_empty());
        r.push(ev(2));
        assert_eq!(r.iter().next().unwrap().seq, 2);
    }

    #[test]
    fn loss_counters_survive_clear() {
        let mut r = EventRing::with_capacity(2);
        for c in 0..5 {
            r.push(ev(c));
        }
        assert_eq!(r.overwritten(), 3);
        r.clear();
        assert_eq!(r.overwritten(), 3, "clear must not erase loss evidence");
        assert_eq!(r.dropped(), 3, "dropped stays an alias of overwritten");
        assert_eq!(r.total_pushed(), 5);
        // Losses keep accumulating across the clear.
        for c in 5..9 {
            r.push(ev(c));
        }
        assert_eq!(r.overwritten(), 5);
        assert_eq!(r.total_pushed(), 9);
    }

    #[test]
    fn snapshot_does_not_reset_counters() {
        let mut r = EventRing::with_capacity(2);
        for c in 0..6 {
            r.push(ev(c));
        }
        let a = r.snapshot();
        let b = r.snapshot();
        for key in [
            "capacity",
            "buffered",
            "total_pushed",
            "dropped",
            "overwritten",
        ] {
            assert_eq!(a.get(key), b.get(key), "{key} changed across snapshots");
        }
        assert_eq!(a.get("overwritten"), Some(4));
        assert_eq!(a.get("dropped"), Some(4), "both spellings agree");
    }

    #[test]
    fn capacity_is_the_requested_size_exactly() {
        // Vec::with_capacity may over-allocate; the ring must wrap at the
        // nominal size regardless, or overflow counts become untrustworthy.
        let mut r = EventRing::with_capacity(3);
        for c in 0..7 {
            r.push(ev(c));
        }
        assert_eq!(r.capacity(), 3);
        assert_eq!(r.len(), 3);
        assert_eq!(r.overwritten(), 4);
    }

    #[test]
    fn snapshot_reports_overflow() {
        let mut r = EventRing::with_capacity(4);
        for c in 0..10 {
            r.push(ev(c));
        }
        let s = r.snapshot();
        assert_eq!(s.component, "event-ring");
        assert_eq!(s.get("capacity"), Some(4));
        assert_eq!(s.get("buffered"), Some(4));
        assert_eq!(s.get("total_pushed"), Some(10));
        assert_eq!(s.get("dropped"), Some(6), "overflow must be observable");
    }

    #[test]
    fn event_json_shape() {
        let e = TraceEvent {
            seq: 7,
            cycles: 125,
            kind: EventKind::HandlerEntered,
            path: TracePath::FastUser,
            class: FaultClass::WriteProtect,
            exc_code: 1,
            vaddr: 0x40_2000,
            pc: 0x40_0104,
        };
        let j = e.to_value().to_string();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"event\":\"handler-entered\""));
        assert!(j.contains("\"path\":\"fast-user\""));
        assert!(j.contains("\"vaddr\":\"0x00402000\""));
    }
}
