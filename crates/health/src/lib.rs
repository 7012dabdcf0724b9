//! # efex-health — always-on effectiveness monitoring
//!
//! The stack's delivery mechanisms are *performance* mechanisms: the block
//! cache, the pinned comm page, the fast exception path all stay
//! architecturally transparent when they stop working — a block cache
//! running at a 0% hit rate delivers exactly the same answers, just slower.
//! Correctness tests can't see that failure mode. This crate watches for it:
//!
//! - a typed **metric registry** ([`Registry`]) fed by every layer's
//!   [`efex_trace::StatsSnapshot`] (and [`efex_trace::Histogram`]s), with
//!   optional per-tenant scoping;
//! - a declarative **invariant engine** ([`Invariant`]) — min/max
//!   thresholds and ratio bounds with warmup windows and per-tenant vs
//!   aggregate scope — evaluated at configurable simulated-cycle intervals
//!   and at end-of-run by a [`HealthMonitor`], producing structured,
//!   actionable [`HealthFinding`]s;
//! - **exposition** in Prometheus text format ([`to_prometheus`]) and JSONL
//!   ([`to_jsonl`]), both lossless for `u64` counters.
//!
//! The health plane is strictly host-side: feeding snapshots and evaluating
//! invariants charges no simulated cycles, so a monitored run is
//! bit-identical to an unmonitored one (`efex-fleet` pins this with a
//! fingerprint comparison).
//!
//! ```
//! use efex_health::{HealthMonitor, Invariant, MetricRef};
//!
//! let mut mon = HealthMonitor::new().with_interval(10_000).invariant(
//!     Invariant::ratio_min(
//!         "superblock-hit-rate",
//!         MetricRef::new("kernel-health", "superblock_hits"),
//!         MetricRef::new("kernel-health", "superblock_misses"),
//!         0.5,
//!     )
//!     .warmup(MetricRef::new("kernel-health", "superblock_misses"), 64)
//!     .hint("the block cache stopped being effective; check the set hash"),
//! );
//! mon.registry().record_counter("kernel-health", None, "superblock_hits", 900);
//! mon.registry().record_counter("kernel-health", None, "superblock_misses", 100);
//! mon.observe(50_000); // interval evaluation at simulated cycle 50k
//! assert!(mon.finish().is_empty());
//! ```

#![warn(missing_docs)]

pub mod budget;
mod invariant;
mod jsonl;
mod monitor;
mod prom;
mod registry;

pub use budget::{
    fast_path_phase_budget, fast_path_published_budget, fast_path_total_budget, FAST_PATH_COMPONENT,
};
pub use invariant::{Check, Invariant, MetricRef, Scope, Violation, Warmup};
pub use jsonl::to_jsonl;
pub use monitor::{HealthFinding, HealthMonitor};
pub use prom::{registry_to_prometheus, to_prometheus};
pub use registry::{MetricKind, Registry, Sample};
