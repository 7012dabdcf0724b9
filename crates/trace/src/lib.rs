//! # efex-trace — exception-lifecycle observability
//!
//! The paper's whole argument rests on *measuring* the exception path
//! (Tables 2/3 are logic-analyzer-style phase timings), so the reproduction
//! needs a cross-cutting way to observe deliveries. This crate provides it:
//!
//! - [`TraceEvent`] / [`EventRing`]: a fixed-capacity, allocation-free ring
//!   buffer of exception lifecycle events (fault raised, kernel entered,
//!   state saved, user handler entered, handler returned, resumed), each
//!   carrying a cycle timestamp, raw `Cause.ExcCode`, faulting vaddr/PC, and
//!   the delivery path.
//! - [`Histogram`] / [`Metrics`]: per-exception-kind counters and log2-bucket
//!   cycle histograms for the deliver / handler / return phases, plus
//!   per-page fault counts.
//! - [`TraceSink`]: the emission interface, with [`NullSink`] (the zero-cost
//!   default), [`RingSink`] (in-memory ring), and [`JsonLinesSink`] (one JSON
//!   object per line to any writer).
//! - [`jsonval`]: the workspace's only JSON value type, writer and parser.
//!   Every exporter in the workspace builds a [`jsonval::Value`] and
//!   serializes it through this module (the build environment is offline;
//!   see `vendor/`).
//!
//! The crate is self-contained — it sits below `efex-simos` and `efex-core`
//! in the dependency graph so both the simulated kernel and the host-level
//! runtime can emit into the same sink.
//!
//! ## Example
//!
//! ```
//! use efex_trace::{EventKind, FaultClass, RingSink, TraceEvent, TracePath, TraceSink};
//! use std::rc::Rc;
//!
//! let ring = Rc::new(RingSink::with_capacity(16));
//! let sink: Rc<dyn TraceSink> = ring.clone();
//! sink.emit(&TraceEvent {
//!     kind: EventKind::FaultRaised,
//!     cycles: 1200,
//!     path: TracePath::FastUser,
//!     class: FaultClass::WriteProtect,
//!     exc_code: 1, // TLB modification
//!     vaddr: 0x0040_2000,
//!     pc: 0x0040_0104,
//!     ..TraceEvent::default()
//! });
//! assert_eq!(ring.events().len(), 1);
//! ```

#![warn(missing_docs)]

mod event;
mod histogram;
pub mod jsonval;
mod metrics;
mod sink;
mod snapshot;

pub use event::{EventKind, EventRing, FaultClass, TraceEvent, TracePath};
pub use histogram::Histogram;
pub use metrics::{KindMetrics, Metrics};
pub use sink::{null_sink, JsonLinesSink, NullSink, RingSink, SharedSink, TraceSink};
pub use snapshot::{Snapshot, StatsSnapshot};
