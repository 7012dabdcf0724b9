//! # efex-core — user-level exception handling (Thekkath & Levy, ASPLOS 1994)
//!
//! The paper's primary contribution as a library: efficient delivery of
//! program-synchronous exceptions to user-level code, over the simulated
//! MIPS machine (`efex-mips`) and kernel (`efex-simos`).
//!
//! Three delivery paths are provided, matching the paper:
//!
//! - [`DeliveryPath::UnixSignals`] — the conventional baseline: full state
//!   save, signal post/recognize/deliver, trampoline, `sigreturn`
//!   (Section 3.1; ~80 µs per round trip at 25 MHz).
//! - [`DeliveryPath::FastUser`] — the paper's software implementation: the
//!   kernel's modified trap handler saves minimal state into a pinned
//!   communication page and returns from the exception directly into the
//!   user handler, which returns by jumping back — no kernel re-entry
//!   (Section 3.2; ~8 µs per round trip).
//! - [`DeliveryPath::HardwareVectored`] — the architectural proposal: the
//!   CPU exchanges PC with a user exception target register, Tera-style;
//!   the kernel is never entered (Section 2; the further 2–3× the paper
//!   estimates).
//!
//! # Two ways to use it
//!
//! **Guest level** ([`System`]): assemble real guest programs and handlers;
//! every instruction of the delivery path executes on the simulator. The
//! microbenchmarks that regenerate the paper's Tables 2 and 3 run this way.
//!
//! **Host level** ([`HostProcess`]): applications written in Rust (the
//! garbage collector, persistent store, DSM, lazy data structures) perform
//! memory accesses through the simulated MMU and receive faults in Rust
//! closures; delivery costs are charged from the guest-level measurements.
//!
//! Both entry points are built the same way — a fluent builder:
//!
//! ```no_run
//! use efex_core::{DeliveryPath, ExceptionKind, HostProcess, System};
//!
//! # fn main() -> Result<(), efex_core::CoreError> {
//! let mut sys = System::builder().delivery(DeliveryPath::FastUser).build()?;
//! let r = sys.measure_null_roundtrip(ExceptionKind::Breakpoint)?;
//! println!("deliver {:.1} us + return {:.1} us", r.deliver_micros(), r.return_micros());
//!
//! let mut host = HostProcess::builder()
//!     .delivery(DeliveryPath::FastUser)
//!     .eager_amplification(true)
//!     .build()?;
//! # let _ = host.cycles();
//! # Ok(())
//! # }
//! ```
//!
//! # Observability
//!
//! Every exception transits a lifecycle — fault raised, kernel entered,
//! state saved, handler entered, handler returned, resumed — and both
//! builders accept a [`efex_trace::TraceSink`] that observes it. The default
//! sink drops events for free; a ring buffer captures the recent history
//! without allocation:
//!
//! ```no_run
//! use efex_core::{DeliveryPath, ExceptionKind, System};
//! use efex_trace::RingSink;
//! use std::rc::Rc;
//!
//! # fn main() -> Result<(), efex_core::CoreError> {
//! let ring = Rc::new(RingSink::new());
//! let mut sys = System::builder()
//!     .delivery(DeliveryPath::FastUser)
//!     .trace_sink(ring.clone())
//!     .build()?;
//! sys.measure_null_roundtrip(ExceptionKind::Breakpoint)?;
//! for event in ring.events() {
//!     println!("{} @{}cy", event.kind, event.cycles);
//! }
//! println!("{}", sys.trace_metrics().to_value());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod delivery;
mod error;
mod guestmem;
mod host;
pub(crate) mod progs;
pub mod replay;
mod snapshot;
mod system;
mod workload;

pub use delivery::{DeliveryCosts, DeliveryPath};
pub use error::CoreError;
pub use guestmem::{GuestMem, Protection};
pub use host::{
    FaultCtx, FaultInfo, HandlerAction, HandlerSpec, HostBuilder, HostProcess, HostStats,
};
pub use snapshot::{HostSnapshot, SystemSnapshot};
pub use system::{ExceptionKind, RoundTrip, System, SystemBuilder, Table3Row};
pub use workload::WorkloadRun;

pub use efex_mips::ExcCode;
pub use efex_simos::Prot;

/// Internal benchmark program sources, exposed for integration tests and
/// the bench harness.
#[doc(hidden)]
pub mod debug_progs {
    pub use crate::progs::*;
}
