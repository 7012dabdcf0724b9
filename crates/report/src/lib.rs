//! # efex-report — baselines, regression checking, and trace export
//!
//! The measurement crates (`efex-mips`, `efex-trace`, the `System` harness)
//! produce numbers; this crate makes them *durable and comparable*:
//!
//! - [`schema::Baseline`]: the versioned `BENCH_baseline.json` format — a
//!   flat list of named metrics (exact cycle/instruction counts, or
//!   tolerance-checked derived floats) plus provenance, serialized
//!   deterministically so re-records are byte-identical.
//! - [`check::compare`]: diff a freshly measured baseline against the
//!   committed one. Exact metrics must reproduce bit-for-bit (the simulator
//!   is cycle-exact); derived metrics get a relative tolerance. CI runs this
//!   after the test suite, so a cost-model change that shifts any Table 2/3/4
//!   number fails the build with a per-metric diff table.
//! - [`chrome::ChromeTrace`]: convert lifecycle [`efex_trace::TraceEvent`]s
//!   and [`efex_mips::RegionSpan`] profiler stays into Chrome
//!   trace-event-format JSON, loadable in Perfetto / `chrome://tracing`.
//! - [`flame`]: folded-stack output (`root;region weight`) for
//!   `flamegraph.pl` / `inferno`, weighted by measured instruction counts.
//! - [`jsonval`]: re-export of `efex_trace::jsonval`, the workspace's JSON
//!   value type, writer and parser; every document this crate emits is built
//!   as a `jsonval::Value`, and `--check` reads baselines back through it.
//! - [`prom`]: a Prometheus text-format scraper, so the `efex-health`
//!   exposition can be proven lossless by re-parsing it.
//!
//! The crate sits low in the graph (depends only on `efex-mips` and
//! `efex-trace`); suite *running* lives in `efex-bench`, whose `report`
//! binary records, checks, and exports.

#![warn(missing_docs)]

pub mod check;
pub mod chrome;
pub mod flame;
pub mod prom;
pub mod schema;

pub use efex_trace::jsonval;

pub use check::{compare, CheckReport, Status, DEFAULT_TOLERANCE};
pub use chrome::ChromeTrace;
pub use schema::{Baseline, Metric, MetricValue, BASELINE_VERSION};
