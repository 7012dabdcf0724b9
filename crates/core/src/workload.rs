//! The shape every application crate's `tenant_workload` returns.
//!
//! Fleet scheduling needs two things from a tenant run that must never mix:
//! the *deterministic* payload (simulated micros and the app's own counter
//! snapshot — these enter the fleet fingerprint) and the *health-plane*
//! payload (kernel/machine effectiveness counters — observability only,
//! excluded from the fingerprint so a run with monitoring on stays
//! bit-identical to one without).

use efex_trace::StatsSnapshot;

/// One tenant workload run: deterministic results plus a health snapshot.
#[derive(Clone, Debug)]
pub struct WorkloadRun {
    /// Simulated time the workload consumed, in microseconds. Part of the
    /// deterministic payload (enters the fleet fingerprint).
    pub micros: f64,
    /// The application's own counters (e.g. `GcStats`). Deterministic.
    pub stats: StatsSnapshot,
    /// Health-plane counters from the host kernel underneath the app
    /// (block cache, TLB repairs, degraded deliveries, …). Observability
    /// only — never part of the fingerprint.
    pub health: StatsSnapshot,
}

impl WorkloadRun {
    /// Bundles a run from its parts.
    pub fn new(micros: f64, stats: StatsSnapshot, health: StatsSnapshot) -> WorkloadRun {
        WorkloadRun {
            micros,
            stats,
            health,
        }
    }
}
