//! # efex-fleet — sharded multi-tenant simulation
//!
//! Runs N independent guest instances ("tenants"), each executing one of the
//! five application-crate workloads with a deterministic per-tenant seed,
//! across a configurable number of worker shards. Results are aggregated
//! into one fleet report: summed [`StatsSnapshot`]s, a merged per-tenant
//! latency [`Histogram`], total simulated time, wall-clock scaling numbers,
//! and (optionally) per-tenant Chrome-trace rows.
//!
//! ## Health plane
//!
//! With [`FleetConfig::health`] (on by default) every tenant also carries a
//! health [`StatsSnapshot`]: the workload host's effectiveness counters plus
//! a `probe_`-prefixed **delivery probe** — one traced fast-path delivery of
//! the suite's characteristic exception kind on a fresh guest, which exposes
//! UTLB/comm-page repairs, degraded deliveries, and trace-ring overflow for
//! that tenant. [`FleetReport::health_monitor`] folds all of it
//! (plus the fleet aggregate, the latency histogram, and the static fast-path
//! budget from `efex-verify`) into an [`efex_health::HealthMonitor`] armed
//! with [`fleet_invariants`]. Health data is strictly host-side: it charges
//! no simulated cycles and stays out of [`FleetReport::fingerprint`].
//!
//! ## Workers
//!
//! Every batch — [`run_fleet`] and each pass of the drills — runs on one
//! process-wide pool of long-lived workers, each with a 16 MB
//! (`WORKER_STACK_BYTES`) stack. The pool grows only to the largest
//! [`FleetConfig::threads`] ever requested, and its workers keep their
//! stacks and allocator arenas warm between batches, so a batch costs
//! about the sum of its tenants. A tenant that panics is caught on its
//! worker and the panic is raised again in the caller; the pool lives on.
//!
//! ## Determinism
//!
//! A tenant's result depends only on its spec (suite + seed) — tenants share
//! no state, so it never depends on which worker ran it or in what order.
//! Every run builds its report the same way: the per-tenant vector is
//! collected into id order before anything reads it, [`StatsSnapshot::merge`]
//! sums counters by name, and the latency [`Histogram`] records one value
//! per tenant. The fleet aggregate is therefore bit-identical across
//! thread-pool sizes — [`FleetReport::fingerprint`] captures exactly the
//! deterministic portion (everything except wall-clock time) so callers can
//! assert it.

#![warn(missing_docs)]

use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use efex_core::{DeliveryPath, ExceptionKind, System};
use efex_health::{HealthMonitor, Invariant, MetricRef};
use efex_mips::machine::{with_machine_config, MachineConfig};
use efex_report::chrome::TID_TENANT_BASE;
use efex_report::ChromeTrace;
use efex_trace::{Histogram, RingSink, StatsSnapshot, TraceEvent};

mod pool;

/// Stack reserved per pool worker: the simulator types (`System`, `Gc`,
/// `Pstore`, …) are large by value and unoptimized builds keep several
/// temporaries live per construction (same sizing as the bench suite).
/// Only the pages a tenant touches are ever faulted in, and a long-lived
/// worker faults them in once per process rather than once per batch.
const WORKER_STACK_BYTES: usize = 16 * 1024 * 1024;

/// Which application suite a tenant runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Generational GC with the page-protection write barrier.
    Gc,
    /// Two-node false-sharing DSM ping-pong.
    Dsm,
    /// Persistent store with lazy unaligned-tag swizzling.
    Pstore,
    /// Lazy streams and futures over access faults.
    Lazydata,
    /// Conditional write watchpoints with subpage protection.
    Watch,
}

impl Suite {
    /// Every suite, in the fixed round-robin order [`plan`] assigns.
    pub const ALL: [Suite; 5] = [
        Suite::Gc,
        Suite::Dsm,
        Suite::Pstore,
        Suite::Lazydata,
        Suite::Watch,
    ];

    /// Stable lowercase name (used in reports and trace row labels).
    pub fn as_str(self) -> &'static str {
        match self {
            Suite::Gc => "gc",
            Suite::Dsm => "dsm",
            Suite::Pstore => "pstore",
            Suite::Lazydata => "lazydata",
            Suite::Watch => "watch",
        }
    }

    /// The exception kind characteristic of the suite, used for the traced
    /// fast-path delivery sample that populates a tenant's Chrome-trace row.
    fn sample_kind(self) -> ExceptionKind {
        match self {
            Suite::Gc | Suite::Dsm | Suite::Lazydata => ExceptionKind::WriteProtect,
            Suite::Pstore => ExceptionKind::UnalignedSpecialized,
            Suite::Watch => ExceptionKind::Subpage,
        }
    }
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One tenant: an independent guest instance with its own workload seed.
///
/// Running the same spec twice is bit-identical — every source of
/// nondeterminism is derived from the seed:
///
/// ```
/// use efex_fleet::{run_tenant, Suite, TenantSpec};
/// use efex_mips::machine::MachineConfig;
///
/// let spec = TenantSpec {
///     id: 0,
///     suite: Suite::Gc,
///     seed: 0x5eed,
///     machine: MachineConfig::default(),
/// };
/// let a = run_tenant(spec, false, false).unwrap();
/// let b = run_tenant(spec, false, false).unwrap();
/// assert_eq!(a.micros.to_bits(), b.micros.to_bits());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct TenantSpec {
    /// Fleet-assigned index, `0..tenants`.
    pub id: u32,
    /// Which application workload this tenant runs.
    pub suite: Suite,
    /// Deterministic workload seed (derived from the fleet base seed).
    pub seed: u64,
    /// Machine configuration (execution engine) every guest this tenant
    /// constructs builds from. Applied as the worker thread's scoped
    /// default, so tenants on different engines never race.
    pub machine: MachineConfig,
}

/// Fleet shape and scheduling knobs.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Number of tenants to run.
    pub tenants: u32,
    /// Worker shards: how many pool workers run the fleet at once; `1`
    /// runs the whole fleet on one worker.
    pub threads: usize,
    /// Base seed every per-tenant seed derives from.
    pub base_seed: u64,
    /// Capture a traced fast-path delivery sample per tenant (for Chrome
    /// export). Off by default: determinism checks don't need it.
    pub trace: bool,
    /// Collect per-tenant health snapshots and run the delivery probe. On by
    /// default (the health plane is meant to be always-on); it is host-side
    /// only, so turning it off changes nothing deterministic.
    pub health: bool,
    /// Machine configuration every tenant builds its guests from (engine
    /// selection for A/B runs; per-tenant, race-free). The aggregate
    /// fingerprint is invariant to it — both engines are bit-exact.
    pub machine: MachineConfig,
    /// Legs per tenant: each leg is one workload pass under a leg-derived
    /// seed, and the tenant's report is the merge of its legs. Legs are the
    /// checkpoint granularity for the migration and crash-recovery drills
    /// ([`run_fleet_migrate`], [`run_fleet_kill_shard`]). The default, `1`,
    /// is bit-identical to the pre-leg fleet.
    pub legs: u32,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            tenants: 16,
            threads: 1,
            base_seed: 0xf1ee7,
            trace: false,
            health: true,
            machine: MachineConfig::default(),
            legs: 1,
        }
    }
}

/// A tenant workload failed.
#[derive(Debug)]
pub struct FleetError {
    /// Failing tenant id.
    pub tenant: u32,
    /// Failing tenant's suite name.
    pub suite: &'static str,
    /// Rendered underlying error.
    pub message: String,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tenant {} ({}) failed: {}",
            self.tenant, self.suite, self.message
        )
    }
}

impl std::error::Error for FleetError {}

/// One tenant's completed run.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Fleet-assigned index.
    pub id: u32,
    /// Workload suite the tenant ran.
    pub suite: Suite,
    /// Seed the workload ran under.
    pub seed: u64,
    /// Simulated run time, µs.
    pub micros: f64,
    /// The workload's stats counters.
    pub stats: StatsSnapshot,
    /// Traced fast-path lifecycle sample (empty unless `FleetConfig::trace`).
    pub events: Vec<TraceEvent>,
    /// Health-plane counters for this tenant (component `"tenant-health"`):
    /// the workload host's effectiveness counters merged with the
    /// `probe_`-prefixed delivery-probe counters. Empty unless
    /// [`FleetConfig::health`]. Deliberately excluded from
    /// [`FleetReport::fingerprint`] — health observes, it never perturbs.
    pub health: StatsSnapshot,
}

/// One fast-path handler phase: the dynamic instruction count measured for a
/// real delivery against the static bound `efex-verify` proves over the
/// assembled kernel image.
#[derive(Clone, Debug)]
pub struct PhaseBudget {
    /// Phase label in the guest source (`fexc_*`).
    pub label: String,
    /// Dynamic instructions measured for one delivery.
    pub measured_instructions: u64,
    /// Static per-phase bound from the verifier.
    pub static_instructions: u64,
}

/// The fast-path cycle budget: measured per-phase instruction counts vs the
/// static bound (the paper's Table 3 discipline, checked as a health
/// invariant instead of a baseline diff).
#[derive(Clone, Debug)]
pub struct FastPathBudget {
    /// Per-phase measured-vs-static rows, in handler order.
    pub phases: Vec<PhaseBudget>,
    /// Sum of the measured per-phase instruction counts.
    pub total_measured_instructions: u64,
    /// The verifier's total static instruction bound.
    pub static_instructions: u64,
    /// The verifier's total static cycle bound.
    pub static_cycles: u64,
}

/// Aggregated results of one fleet run.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Per-tenant reports, in id order regardless of scheduling.
    pub tenants: Vec<TenantReport>,
    /// All tenant stats merged (counters summed by name).
    pub aggregate: StatsSnapshot,
    /// Per-tenant simulated run time, recorded in nanoseconds, one record
    /// per tenant.
    pub latency: Histogram,
    /// Total simulated time across tenants, µs.
    pub total_micros: f64,
    /// Real elapsed time for the whole fleet, seconds.
    pub wall_seconds: f64,
    /// Worker threads the run used.
    pub threads: usize,
    /// Measured-vs-static fast-path budget (`None` unless
    /// [`FleetConfig::health`]). Probed once per fleet, not per tenant.
    pub fast_path: Option<FastPathBudget>,
    /// Tenants that completed after a live migration to a different worker
    /// shard ([`run_fleet_migrate`]). Drill accounting, like wall-clock
    /// time: excluded from [`FleetReport::fingerprint`].
    pub migrations: u32,
    /// Tenants restored from their last checkpoint after a shard was killed
    /// ([`run_fleet_kill_shard`]). Excluded from the fingerprint.
    pub recoveries: u32,
}

impl FleetReport {
    /// Total exception deliveries across the fleet: the sum of every
    /// aggregate counter whose name mentions faults (`barrier_faults`,
    /// `faults`, …) — each suite counts its deliveries under such a name.
    pub fn deliveries(&self) -> u64 {
        self.aggregate
            .counters
            .iter()
            .filter(|(name, _)| name.contains("fault"))
            .map(|&(_, v)| v)
            .sum()
    }

    /// Deliveries per wall-clock second — the fleet throughput metric.
    pub fn deliveries_per_wall_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.deliveries() as f64 / self.wall_seconds
    }

    /// A stable rendering of everything deterministic in the report —
    /// per-tenant specs, stats and simulated times, the aggregate, and the
    /// latency histogram — excluding wall-clock time and thread count. Two
    /// runs of the same fleet must produce byte-identical fingerprints no
    /// matter how many workers they used.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for t in &self.tenants {
            out.push_str(&format!(
                "tenant {} {} seed={:#x} micros={} stats={}\n",
                t.id,
                t.suite,
                t.seed,
                t.micros.to_bits(),
                t.stats.to_value()
            ));
        }
        out.push_str(&format!("aggregate {}\n", self.aggregate.to_value()));
        out.push_str(&format!("latency {}\n", self.latency.to_value()));
        out.push_str(&format!("total_micros {}\n", self.total_micros.to_bits()));
        out
    }

    /// Exports the fleet as a Chrome trace-event document: each tenant's
    /// lifecycle sample on its own named thread row (requires the fleet to
    /// have run with `FleetConfig::trace`).
    pub fn chrome_trace(&self) -> String {
        let mut trace = ChromeTrace::new();
        for t in &self.tenants {
            trace.push_tenant_lifecycle(
                TID_TENANT_BASE + t.id,
                &format!("tenant-{:02} ({})", t.id, t.suite),
                &t.events,
            );
        }
        trace.to_json()
    }

    /// Builds the health monitor for this run armed with
    /// [`fleet_invariants`]. See [`FleetReport::health_monitor_with`].
    pub fn health_monitor(&self) -> HealthMonitor {
        self.health_monitor_with(fleet_invariants())
    }

    /// Builds a [`HealthMonitor`] armed with `invariants` (callers extend
    /// [`fleet_invariants`]) and fed from every layer: per-tenant workload
    /// stats and health snapshots, the fleet aggregate and an aggregate
    /// health rollup, the latency histogram, and the static fast-path
    /// budget. Tenants are replayed in id order against the accumulated
    /// simulated-cycle clock, so evaluations every
    /// [`HEALTH_INTERVAL_CYCLES`] fire as they would have during the run;
    /// the caller finishes with [`HealthMonitor::finish`] for the
    /// end-of-run pass.
    pub fn health_monitor_with(&self, invariants: Vec<Invariant>) -> HealthMonitor {
        let mut mon = HealthMonitor::new().with_interval(HEALTH_INTERVAL_CYCLES);
        for inv in invariants {
            mon.add_invariant(inv);
        }
        let mut cycles = 0u64;
        for t in &self.tenants {
            mon.registry().record_snapshot(Some(t.id), &t.stats);
            mon.registry().record_snapshot(Some(t.id), &t.health);
            cycles += t.health.get("cycles").unwrap_or(0);
            cycles += t.health.get("probe_cycles").unwrap_or(0);
            mon.observe(cycles);
        }
        mon.registry().record_snapshot(None, &self.aggregate);
        let rollup =
            StatsSnapshot::aggregate("tenant-health", self.tenants.iter().map(|t| &t.health));
        mon.registry().record_snapshot(None, &rollup);
        mon.registry()
            .record_histogram("fleet_latency_ns", &self.latency);
        if let Some(fp) = &self.fast_path {
            for p in &fp.phases {
                mon.registry().record_gauge(
                    "fast-path",
                    None,
                    &format!("{}_measured_instructions", p.label),
                    p.measured_instructions,
                );
                mon.registry().record_gauge(
                    "fast-path",
                    None,
                    &format!("{}_static_instructions", p.label),
                    p.static_instructions,
                );
            }
            mon.registry().record_gauge(
                "fast-path",
                None,
                "total_measured_instructions",
                fp.total_measured_instructions,
            );
            mon.registry().record_gauge(
                "fast-path",
                None,
                "static_instructions",
                fp.static_instructions,
            );
            mon.registry()
                .record_gauge("fast-path", None, "static_cycles", fp.static_cycles);
        }
        mon.registry()
            .record_gauge("fleet", None, "tenants", self.tenants.len() as u64);
        mon.registry()
            .record_gauge("fleet", None, "threads", self.threads as u64);
        mon.registry().record_gauge(
            "fleet",
            None,
            "migrated_tenants",
            u64::from(self.migrations),
        );
        mon.registry().record_gauge(
            "fleet",
            None,
            "recovered_tenants",
            u64::from(self.recoveries),
        );
        mon
    }
}

/// Simulated-cycle interval between health evaluations.
pub const HEALTH_INTERVAL_CYCLES: u64 = 100_000;

/// The fleet's declarative invariant set: what "every delivery mechanism is
/// still effective" means for a healthy run. All thresholds are deliberately
/// loose — they separate working mechanisms from broken ones, not fast runs
/// from slightly slower ones.
pub fn fleet_invariants() -> Vec<Invariant> {
    let th = |name: &str| MetricRef::new("tenant-health", name);
    let mut invs = vec![
        // Degraded (full-state) deliveries mean the fast path gave up.
        Invariant::max("degraded-deliveries", th("degraded_deliveries"), 0).hint(
            "the kernel fell back to full-state degraded delivery; check \
             comm-page registration and the fast-path preconditions (efex-simos)",
        ),
        Invariant::max(
            "host-degraded-deliveries",
            th("host_degraded_deliveries"),
            0,
        )
        .hint(
            "the host delivery layer degraded a delivery; check \
             HostProcess's comm-page state (efex-core)",
        ),
        // The pinned comm-page mapping must never need repair in a healthy
        // run — a repair means the UTLB invariant was broken mid-flight.
        Invariant::max("comm-page-repairs", th("comm_page_repairs"), 0).hint(
            "the pinned comm-page UTLB entry was lost and re-pinned mid-run; \
             check the UTLB replacement policy (efex-simos kernel)",
        ),
        Invariant::max("utlb-repairs", th("utlb_repairs"), 0).hint(
            "a UTLB refill targeted the pinned comm-page slot and was \
             repaired; check utlb_refill's slot choice (efex-simos kernel)",
        ),
        // The probe's trace ring must hold a full delivery lifecycle.
        Invariant::max("trace-ring-overflow", th("probe_ring_overwritten"), 0).hint(
            "the per-tenant trace ring wrapped and overwrote lifecycle \
             events; grow the RingSink capacity in the delivery probe",
        ),
        // Every tenant's health plane must actually have reported.
        Invariant::min("probe-activity", th("probe_cycles"), 1)
            .per_tenant()
            .hint(
                "a tenant's delivery probe reported no simulated cycles; the \
                 health plane is blind for this tenant",
            ),
        // A restored checkpoint whose machine digest does not match the one
        // recorded at capture means snapshot/restore is lossy — the
        // migration and crash-recovery drills would silently resume wrong
        // state.
        Invariant::max(
            "snapshot-restore-divergence",
            th("snapshot_restore_divergence"),
            0,
        )
        .hint(
            "a kernel restore failed its capture-digest check; check \
             Kernel::restore and MachineState round-tripping (efex-simos, \
             efex-snap)",
        ),
    ];
    // Measured fast-path work must stay within the static bound efex-verify
    // proves over the assembled kernel image — per phase and in total — and
    // the computed bound must itself match the published Table 3 budget.
    // All ceilings come from `efex_health::budget`, built from the single
    // authoritative constants in `efex_verify::budget`.
    for (label, _, _) in efex_simos::fastexc::TABLE3_PHASES {
        invs.push(efex_health::fast_path_phase_budget(label));
    }
    invs.push(efex_health::fast_path_total_budget());
    invs.extend(efex_health::fast_path_published_budget());
    invs
}

/// Expands a config into the tenant list: suites assigned round-robin in
/// [`Suite::ALL`] order, seeds derived from the base seed by a fixed mix so
/// neighbouring tenants get well-separated workload parameters.
pub fn plan(cfg: &FleetConfig) -> Vec<TenantSpec> {
    (0..cfg.tenants)
        .map(|id| TenantSpec {
            id,
            suite: Suite::ALL[id as usize % Suite::ALL.len()],
            seed: cfg
                .base_seed
                .wrapping_add(u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            machine: cfg.machine,
        })
        .collect()
}

/// Runs one tenant to completion on the calling thread: one workload pass
/// plus the delivery probe, [`resume_tenant`] of a fresh one-leg
/// checkpoint.
///
/// # Errors
///
/// Returns [`FleetError`] if the tenant's workload fails.
pub fn run_tenant(spec: TenantSpec, trace: bool, health: bool) -> Result<TenantReport, FleetError> {
    complete_tenant(TenantCheckpoint::initial(spec, 1), trace, health)
}

/// The seed a tenant's `leg`-th workload pass runs under. Leg 0 is the
/// tenant's own seed, so a one-leg fleet is bit-identical to the pre-leg
/// fleet; later legs mix in a fixed odd constant for well-separated
/// workload parameters.
pub fn leg_seed(seed: u64, leg: u32) -> u64 {
    seed.wrapping_add(u64::from(leg).wrapping_mul(0xd1b5_4a32_d192_ed03))
}

/// One workload pass (no probe, no health merge) under the leg's seed.
fn run_leg(spec: TenantSpec, leg: u32) -> Result<efex_core::WorkloadRun, FleetError> {
    let err = |e: &dyn std::fmt::Display| FleetError {
        tenant: spec.id,
        suite: spec.suite.as_str(),
        message: e.to_string(),
    };
    let seed = leg_seed(spec.seed, leg);
    with_machine_config(spec.machine, || match spec.suite {
        Suite::Gc => efex_gc::workloads::tenant_workload(seed).map_err(|e| err(&e)),
        Suite::Dsm => efex_dsm::workloads::tenant_workload(seed).map_err(|e| err(&e)),
        Suite::Pstore => efex_pstore::workloads::tenant_workload(seed).map_err(|e| err(&e)),
        Suite::Lazydata => efex_lazydata::tenant_workload(seed).map_err(|e| err(&e)),
        Suite::Watch => efex_watch::tenant_workload(seed).map_err(|e| err(&e)),
    })
}

/// A tenant checkpoint: the spec plus everything its completed legs
/// produced. Serializes to a standalone [`efex_snap::Flavor::Tenant`]
/// artifact, so a checkpoint taken on one worker shard (or one process)
/// can be resumed on another with [`resume_tenant`] — the unit of live
/// migration and crash recovery in the fleet drills.
#[derive(Clone, Debug)]
pub struct TenantCheckpoint {
    /// The tenant being checkpointed (including its machine config, which
    /// must travel with it — the resuming shard may default differently).
    pub spec: TenantSpec,
    /// Total legs the tenant's run consists of.
    pub legs_total: u32,
    /// Legs already completed and folded into the fields below.
    pub legs_done: u32,
    /// Simulated µs accumulated over the completed legs.
    pub micros: f64,
    /// Workload stats merged over the completed legs (`None` before the
    /// first leg completes).
    pub stats: Option<StatsSnapshot>,
    /// Health counters merged over the completed legs (empty when the
    /// fleet runs with health off).
    pub health: StatsSnapshot,
}

impl TenantCheckpoint {
    /// The checkpoint of a tenant that has not run yet.
    pub fn initial(spec: TenantSpec, legs_total: u32) -> TenantCheckpoint {
        TenantCheckpoint {
            spec,
            legs_total: legs_total.max(1),
            legs_done: 0,
            micros: 0.0,
            stats: None,
            health: StatsSnapshot::new("tenant-health"),
        }
    }

    /// Serializes as a standalone [`efex_snap::Flavor::Tenant`] artifact.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = efex_snap::Writer::new(efex_snap::Flavor::Tenant);
        w.u32(self.spec.id);
        w.u8(Suite::ALL
            .iter()
            .position(|s| *s == self.spec.suite)
            .expect("suite in ALL") as u8);
        w.u64(self.spec.seed);
        w.u8(match self.spec.machine.engine {
            efex_mips::machine::ExecEngine::Interpreter => 0,
            efex_mips::machine::ExecEngine::Superblock => 1,
        });
        w.u32(self.legs_total);
        w.u32(self.legs_done);
        w.f64(self.micros);
        w.bool(self.stats.is_some());
        if let Some(stats) = &self.stats {
            encode_counters(&mut w, stats);
        }
        encode_counters(&mut w, &self.health);
        w.finish()
    }

    /// Deserializes a standalone [`efex_snap::Flavor::Tenant`] artifact.
    ///
    /// # Errors
    ///
    /// Typed [`efex_snap::SnapError`] on any malformation; never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<TenantCheckpoint, efex_snap::SnapError> {
        let mut r = efex_snap::Reader::open(bytes, efex_snap::Flavor::Tenant)?;
        let id = r.u32()?;
        let suite = *Suite::ALL
            .get(r.u8()? as usize)
            .ok_or_else(|| efex_snap::SnapError::Corrupt("suite tag out of range".into()))?;
        let seed = r.u64()?;
        let engine = match r.u8()? {
            0 => efex_mips::machine::ExecEngine::Interpreter,
            1 => efex_mips::machine::ExecEngine::Superblock,
            t => return Err(efex_snap::SnapError::Corrupt(format!("engine tag {t}"))),
        };
        let legs_total = r.u32()?;
        let legs_done = r.u32()?;
        if legs_total == 0 || legs_done > legs_total {
            return Err(efex_snap::SnapError::Corrupt(format!(
                "leg counts {legs_done}/{legs_total}"
            )));
        }
        let micros = r.f64()?;
        let stats = if r.bool()? {
            Some(decode_counters(&mut r, suite.as_str())?)
        } else {
            None
        };
        let health = decode_counters(&mut r, "tenant-health")?;
        r.done()?;
        Ok(TenantCheckpoint {
            spec: TenantSpec {
                id,
                suite,
                seed,
                machine: MachineConfig { engine },
            },
            legs_total,
            legs_done,
            micros,
            stats,
            health,
        })
    }
}

fn encode_counters(w: &mut efex_snap::Writer, snap: &StatsSnapshot) {
    w.u32(snap.counters.len() as u32);
    for (name, value) in &snap.counters {
        w.str(name);
        w.u64(*value);
    }
}

/// Counter names are arbitrary strings but the component is a `&'static
/// str`, so the caller supplies the component the checkpoint's context
/// implies (the suite name for workload stats, `"tenant-health"` for the
/// health plane).
fn decode_counters(
    r: &mut efex_snap::Reader<'_>,
    component: &'static str,
) -> Result<StatsSnapshot, efex_snap::SnapError> {
    let n = r.count(3)?;
    let mut snap = StatsSnapshot::new(component);
    for _ in 0..n {
        let name = r.str()?.to_string();
        let value = r.u64()?;
        snap.counters.push((name, value));
    }
    Ok(snap)
}

/// Runs a tenant's next legs up to (not including) `until_leg`, folding
/// each completed leg into the checkpoint.
///
/// # Errors
///
/// Returns [`FleetError`] if a leg's workload fails.
pub fn advance_tenant(ckpt: &mut TenantCheckpoint, until_leg: u32) -> Result<(), FleetError> {
    let until = until_leg.min(ckpt.legs_total);
    while ckpt.legs_done < until {
        let run = run_leg(ckpt.spec, ckpt.legs_done)?;
        ckpt.micros += run.micros;
        match &mut ckpt.stats {
            Some(stats) => stats.merge(&run.stats),
            None => ckpt.stats = Some(run.stats),
        }
        ckpt.health.merge(&run.health);
        ckpt.legs_done += 1;
    }
    Ok(())
}

/// Runs the tenant from the checkpoint to completion — the remaining legs
/// plus the end-of-run delivery probe — and builds its report. The
/// checkpoint may come from this process or off the wire
/// ([`TenantCheckpoint::from_bytes`]); a resumed tenant reports exactly
/// what an uninterrupted one would.
///
/// # Errors
///
/// Returns [`FleetError`] if a remaining leg's workload (or the probe)
/// fails.
pub fn resume_tenant(
    ckpt: &TenantCheckpoint,
    trace: bool,
    health: bool,
) -> Result<TenantReport, FleetError> {
    complete_tenant(ckpt.clone(), trace, health)
}

/// The one tenant runner behind [`run_tenant`] and [`resume_tenant`]: the
/// remaining legs, the probe, and the report.
fn complete_tenant(
    mut ckpt: TenantCheckpoint,
    trace: bool,
    health: bool,
) -> Result<TenantReport, FleetError> {
    let total = ckpt.legs_total;
    advance_tenant(&mut ckpt, total)?;
    let err = |e: &dyn std::fmt::Display| FleetError {
        tenant: ckpt.spec.id,
        suite: ckpt.spec.suite.as_str(),
        message: e.to_string(),
    };
    // The checkpoint's health counters were merged from empty, so taking
    // them whole is the merge into a fresh snapshot.
    let mut health_snap = if health {
        ckpt.health
    } else {
        StatsSnapshot::new("tenant-health")
    };
    let mut events = Vec::new();
    if trace || health {
        let probe = delivery_probe(ckpt.spec.suite).map_err(|e| err(&e))?;
        if trace {
            events = probe.events;
        }
        if health {
            health_snap.merge(&probe.health);
        }
    }
    Ok(TenantReport {
        id: ckpt.spec.id,
        suite: ckpt.spec.suite,
        seed: ckpt.spec.seed,
        micros: ckpt.micros,
        stats: ckpt.stats.unwrap_or_else(|| StatsSnapshot::new("fleet")),
        events,
        health: health_snap,
    })
}

/// Runs `f(shard, item)` for each item on the worker pool with a *static*
/// assignment `shard = shard_of(index) % threads` — the drills need to
/// prove which shard ran what, so no work stealing here. Results come back
/// in item order.
fn scatter<T: Send + 'static, R: Send + 'static>(
    items: Vec<T>,
    threads: usize,
    shard_of: impl Fn(usize) -> usize,
    f: impl Fn(usize, T) -> R + Send + Sync + 'static,
) -> Vec<R> {
    let threads = threads.max(1);
    let n = items.len();
    let mut shards: Vec<Vec<(usize, T)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        shards[shard_of(i) % threads].push((i, item));
    }
    let shards: Vec<Mutex<Vec<(usize, T)>>> = shards.into_iter().map(Mutex::new).collect();
    let done = pool::run(threads, move |w| {
        let mine = std::mem::take(&mut *shards[w].lock().expect("one taker per shard"));
        mine.into_iter()
            .map(|(i, item)| (i, f(w, item)))
            .collect::<Vec<_>>()
    });
    in_item_order(n, done.into_iter().flatten())
}

/// Puts the `(index, result)` pairs of items `0..n` back in item order.
fn in_item_order<R>(n: usize, pairs: impl IntoIterator<Item = (usize, R)>) -> Vec<R> {
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in pairs {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every item ran"))
        .collect()
}

/// How many legs a drill splits a tenant into, and the leg after which the
/// checkpoint is taken: drills need at least two legs to have a
/// "mid-suite" point, so a one-leg config is promoted to two.
fn drill_legs(cfg: &FleetConfig) -> (u32, u32) {
    let legs = cfg.legs.max(2);
    (legs, legs / 2)
}

/// Builds the fleet report from its tenant reports: id order, merged
/// stats, and one latency record per tenant (histogram buckets sum, so the
/// order of records does not change the histogram).
fn aggregate_reports(
    mut tenants: Vec<TenantReport>,
    threads: usize,
    fast_path: Option<FastPathBudget>,
    wall_seconds: f64,
    migrations: u32,
    recoveries: u32,
) -> FleetReport {
    tenants.sort_by_key(|t| t.id);
    let mut latency = Histogram::new();
    for t in &tenants {
        latency.record((t.micros * 1000.0) as u64); // µs → ns
    }
    let aggregate = StatsSnapshot::aggregate("fleet", tenants.iter().map(|t| &t.stats));
    let total_micros = tenants.iter().map(|t| t.micros).sum();
    FleetReport {
        tenants,
        aggregate,
        latency,
        total_micros,
        wall_seconds,
        threads,
        fast_path,
        migrations,
        recoveries,
    }
}

/// The fast-path budget when the fleet runs with health on.
fn fleet_fast_path(cfg: &FleetConfig) -> Result<Option<FastPathBudget>, FleetError> {
    if cfg.health {
        Ok(Some(fast_path_budget().map_err(|message| FleetError {
            tenant: 0,
            suite: "health-probe",
            message,
        })?))
    } else {
        Ok(None)
    }
}

fn first_error<R>(results: Vec<Result<R, FleetError>>) -> Result<Vec<R>, FleetError> {
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

/// The live-migration drill: every tenant runs its first legs on its home
/// shard, is checkpointed **through the wire**
/// ([`TenantCheckpoint::to_bytes`]), and completes on a *different* worker
/// shard. The report must fingerprint identically to an uninterrupted
/// [`run_fleet`] of the same (legged) config — the assertion the `snap` CI
/// gate makes.
///
/// # Errors
///
/// Returns [`FleetError`] if any tenant's workload fails or a checkpoint
/// fails to round-trip.
pub fn run_fleet_migrate(cfg: &FleetConfig) -> Result<FleetReport, FleetError> {
    let cfg = *cfg;
    let threads = cfg.threads.max(1);
    let (legs, split) = drill_legs(&cfg);
    let fast_path = fleet_fast_path(&cfg)?;
    let start = Instant::now();
    let specs = plan(&cfg);
    // Phase A: home shard = id % threads, run to the checkpoint, serialize.
    let blobs = first_error(scatter(
        specs,
        threads,
        |i| i,
        move |_, spec| {
            let mut ckpt = TenantCheckpoint::initial(spec, legs);
            advance_tenant(&mut ckpt, split)?;
            Ok::<Vec<u8>, FleetError>(ckpt.to_bytes())
        },
    ))?;
    // Phase B: every tenant one shard over from home.
    let reports = first_error(scatter(
        blobs,
        threads,
        |i| i + 1,
        move |_, bytes: Vec<u8>| {
            let ckpt = TenantCheckpoint::from_bytes(&bytes).map_err(|e| FleetError {
                tenant: u32::MAX,
                suite: "migrate",
                message: format!("checkpoint failed to round-trip: {e}"),
            })?;
            resume_tenant(&ckpt, cfg.trace, cfg.health)
        },
    ))?;
    let migrations = reports.len() as u32;
    Ok(aggregate_reports(
        reports,
        threads,
        fast_path,
        start.elapsed().as_secs_f64(),
        migrations,
        0,
    ))
}

/// The crash-recovery drill: every tenant checkpoints after its first
/// legs; then shard `dead` is killed. Its tenants' in-flight state is
/// gone — they restart from their last serialized checkpoint on the
/// surviving shards and are counted as [`FleetReport::recoveries`]
/// (surfaced to the health plane as the `recovered_tenants` gauge and a
/// per-tenant `restored_from_checkpoint` health counter). Tenants on
/// surviving shards complete undisturbed. The fingerprint must equal the
/// uninterrupted legged run's.
///
/// # Errors
///
/// [`FleetError`] if `dead` is out of range, the fleet has fewer than two
/// shards (nowhere to recover to), any workload fails, or a checkpoint
/// fails to round-trip.
pub fn run_fleet_kill_shard(cfg: &FleetConfig, dead: usize) -> Result<FleetReport, FleetError> {
    let cfg = *cfg;
    let threads = cfg.threads.max(1);
    if threads < 2 || dead >= threads {
        return Err(FleetError {
            tenant: 0,
            suite: "kill-shard",
            message: format!(
                "need >= 2 shards and a valid victim (threads={threads}, dead={dead})"
            ),
        });
    }
    let (legs, split) = drill_legs(&cfg);
    let fast_path = fleet_fast_path(&cfg)?;
    let start = Instant::now();
    let specs = plan(&cfg);
    // Phase A: everyone runs to the checkpoint on their home shard and
    // serializes it — the always-on checkpointing the drill relies on.
    let blobs = first_error(scatter(
        specs,
        threads,
        |i| i,
        move |_, spec| {
            let mut ckpt = TenantCheckpoint::initial(spec, legs);
            advance_tenant(&mut ckpt, split)?;
            Ok::<Vec<u8>, FleetError>(ckpt.to_bytes())
        },
    ))?;
    // The kill: shard `dead` never runs its tail legs. Lost tenants are
    // rerouted one shard over (never back to the dead shard; threads >= 2
    // guarantees a survivor); the rest resume on their home shard.
    let items: Vec<(Vec<u8>, bool)> = blobs
        .into_iter()
        .enumerate()
        .map(|(i, b)| (b, i % threads == dead))
        .collect();
    let reroute = |i: usize| {
        if i % threads == dead {
            i + 1
        } else {
            i
        }
    };
    let reports = first_error(scatter(
        items,
        threads,
        reroute,
        move |_, (bytes, recovered): (Vec<u8>, bool)| {
            let ckpt = TenantCheckpoint::from_bytes(&bytes).map_err(|e| FleetError {
                tenant: u32::MAX,
                suite: "kill-shard",
                message: format!("checkpoint failed to round-trip: {e}"),
            })?;
            let mut report = resume_tenant(&ckpt, cfg.trace, cfg.health)?;
            if recovered && cfg.health {
                report
                    .health
                    .counters
                    .push(("restored_from_checkpoint".into(), 1));
            }
            Ok::<(TenantReport, bool), FleetError>((report, recovered))
        },
    ))?;
    let recoveries = reports.iter().filter(|(_, r)| *r).count() as u32;
    let tenants = reports.into_iter().map(|(t, _)| t).collect();
    Ok(aggregate_reports(
        tenants,
        threads,
        fast_path,
        start.elapsed().as_secs_f64(),
        0,
        recoveries,
    ))
}

/// What the per-tenant delivery probe produced: lifecycle events for the
/// Chrome-trace row plus `probe_`-prefixed health counters.
#[derive(Clone)]
struct DeliveryProbe {
    events: Vec<TraceEvent>,
    health: StatsSnapshot,
}

/// The tenant's delivery probe, run once per process for each exception
/// kind: the probe is a pure function of the kind, so every tenant whose
/// suite samples that kind shares the first result. Failures are not kept.
fn delivery_probe(suite: Suite) -> Result<DeliveryProbe, String> {
    static PROBES: Mutex<Vec<(ExceptionKind, DeliveryProbe)>> = Mutex::new(Vec::new());
    let kind = suite.sample_kind();
    let cached = |probes: &[(ExceptionKind, DeliveryProbe)]| {
        probes
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, p)| p.clone())
    };
    let lock = || PROBES.lock().expect("no probe-memo holder panics");
    if let Some(probe) = cached(&lock()) {
        return Ok(probe);
    }
    let probe = measure_delivery_probe(kind).map_err(|e| e.to_string())?;
    let mut probes = lock();
    // Another worker may have measured the same kind meanwhile; both runs
    // are identical, so keep the first.
    if cached(&probes).is_none() {
        probes.push((kind, probe.clone()));
    }
    Ok(probe)
}

/// One traced fast-path delivery of `kind` on a fresh guest. The trace and
/// health planes share this single simulation: the ring buffers the
/// lifecycle events, and the guest's kernel counters (repairs, snapshots,
/// cycles, ring occupancy) become the tenant's `probe_*` health metrics.
/// The probe single-steps its guest, so both engines would run the same
/// [`efex_mips::machine::Machine::step`]; it builds from the default
/// machine config so that its result depends on `kind` alone, whatever
/// engine the calling tenant's thread inherits. Single-stepping never
/// enters a block, so the kernel's `superblock_*` counters read 0 here by
/// construction and are not exported.
fn measure_delivery_probe(kind: ExceptionKind) -> Result<DeliveryProbe, efex_core::CoreError> {
    let ring = Rc::new(RingSink::with_capacity(64));
    let mut sys = System::builder()
        .delivery(DeliveryPath::FastUser)
        .trace_sink(ring.clone())
        .machine_config(MachineConfig::default())
        .build()?;
    sys.measure_null_roundtrip(kind)?;
    let mut health = StatsSnapshot::new("tenant-health");
    for (name, value) in sys.health_snapshot().counters {
        if !name.starts_with("superblock_") {
            health.counters.push((format!("probe_{name}"), value));
        }
    }
    let health = health
        .counter("probe_ring_buffered", ring.len() as u64)
        .counter("probe_ring_dropped", ring.dropped())
        .counter("probe_ring_overwritten", ring.overwritten())
        .counter("probe_ring_total_pushed", ring.total_pushed());
    Ok(DeliveryProbe {
        events: ring.events(),
        health,
    })
}

/// Runs the whole fleet across `cfg.threads` workers and aggregates.
///
/// Workers claim tenants from a shared atomic index (work stealing), so load
/// balances even when suites differ wildly in cost; results land in an
/// id-indexed table, so aggregation order — and with it every aggregate —
/// is independent of the claiming order.
///
/// # Errors
///
/// Returns the first (lowest-id) [`FleetError`] if any tenant fails.
pub fn run_fleet(cfg: &FleetConfig) -> Result<FleetReport, FleetError> {
    let specs = plan(cfg);
    let threads = cfg.threads.max(1);
    // The fast-path budget is a property of the kernel image, not of any
    // tenant: probe it once, before the workers start.
    let fast_path = fleet_fast_path(cfg)?;
    let n = specs.len();
    let cfg = *cfg;
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    // Each shard claims tenants until none are left.
    let shards = pool::run(threads, move |_| {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&spec) = specs.get(i) else {
                break;
            };
            let ckpt = TenantCheckpoint::initial(spec, cfg.legs);
            done.push((i, complete_tenant(ckpt, cfg.trace, cfg.health)));
        }
        done
    });
    let wall_seconds = start.elapsed().as_secs_f64();
    // Collecting in id order returns the lowest-id error.
    let tenants = in_item_order(n, shards.into_iter().flatten())
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    Ok(aggregate_reports(
        tenants,
        threads,
        fast_path,
        wall_seconds,
        0,
        0,
    ))
}

/// The fast-path budget, measured once per process: it is a pure function
/// of the kernel image, so every fleet run shares the first result.
fn fast_path_budget() -> Result<FastPathBudget, String> {
    static BUDGET: OnceLock<Result<FastPathBudget, String>> = OnceLock::new();
    BUDGET.get_or_init(measure_fast_path_budget).clone()
}

/// Measures the fast-path handler's per-phase dynamic instruction counts
/// (the paper's Table 3) and pairs each with the static bound `efex-verify`
/// computes over the assembled kernel image.
fn measure_fast_path_budget() -> Result<FastPathBudget, String> {
    let images = efex_simos::kernel::boot_images().map_err(|e| format!("kernel image: {e}"))?;
    let report = efex_simos::verify::verify_kernel_image(&images.kernel);
    let fp = report
        .fast_path
        .as_ref()
        .ok_or("verifier computed no static fast path")?;
    let rows = System::builder()
        .delivery(DeliveryPath::FastUser)
        .build()
        .map_err(|e| e.to_string())?
        .measure_table3()
        .map_err(|e| e.to_string())?;
    let mut phases = Vec::with_capacity(rows.len());
    let mut total_measured_instructions = 0;
    for row in &rows {
        let bound = fp
            .per_phase
            .iter()
            .find(|p| p.label == row.label)
            .ok_or_else(|| format!("no static bound for phase {}", row.label))?;
        total_measured_instructions += row.measured_instructions;
        phases.push(PhaseBudget {
            label: row.label.to_string(),
            measured_instructions: row.measured_instructions,
            static_instructions: bound.instructions,
        });
    }
    Ok(FastPathBudget {
        phases,
        total_measured_instructions,
        static_instructions: fp.total_instructions,
        static_cycles: fp.total_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoized_delivery_probe_equals_a_fresh_one() {
        for suite in Suite::ALL {
            let fresh = measure_delivery_probe(suite.sample_kind()).unwrap();
            assert!(!fresh.events.is_empty(), "{suite}: probe traced nothing");
            // The first call may measure; the second must hit the memo.
            for _ in 0..2 {
                let memo = delivery_probe(suite).unwrap();
                assert_eq!(memo.events, fresh.events, "{suite}");
                assert_eq!(memo.health, fresh.health, "{suite}");
            }
        }
    }

    #[test]
    fn plan_is_deterministic_and_round_robin() {
        let cfg = FleetConfig {
            tenants: 12,
            ..FleetConfig::default()
        };
        let a = plan(&cfg);
        let b = plan(&cfg);
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.id, x.suite, x.seed), (y.id, y.suite, y.seed));
        }
        assert_eq!(a[0].suite, Suite::Gc);
        assert_eq!(a[5].suite, Suite::Gc, "round-robin wraps at 5");
        assert_ne!(a[0].seed, a[5].seed, "same suite, distinct seeds");
    }

    #[test]
    fn single_tenant_reports_stats_and_time() {
        let r = run_tenant(
            TenantSpec {
                id: 0,
                suite: Suite::Dsm,
                seed: 3,
                machine: MachineConfig::default(),
            },
            false,
            false,
        )
        .unwrap();
        assert!(r.micros > 0.0);
        assert!(r.stats.get("faults").unwrap() > 0);
        assert!(r.events.is_empty(), "tracing was off");
        assert!(r.health.counters.is_empty(), "health was off");
    }

    #[test]
    fn tenant_health_snapshot_spans_every_layer() {
        let r = run_tenant(
            TenantSpec {
                id: 0,
                suite: Suite::Gc,
                seed: 7,
                machine: MachineConfig::default(),
            },
            false,
            true,
        )
        .unwrap();
        // Workload host counters, kernel effectiveness counters, and the
        // probe's guest + ring counters all land in one snapshot.
        assert_eq!(r.health.component, "tenant-health");
        assert!(
            r.health.get("cycles").unwrap() > 0,
            "workload kernel cycles"
        );
        assert_eq!(r.health.get("degraded_deliveries"), Some(0));
        assert_eq!(r.health.get("comm_page_repairs"), Some(0));
        assert!(r.health.get("probe_cycles").unwrap() > 0, "probe ran");
        assert_eq!(r.health.get("probe_ring_overwritten"), Some(0));
        assert!(r.health.get("probe_ring_total_pushed").unwrap() > 0);
    }

    #[test]
    fn fleet_aggregates_every_tenant() {
        let cfg = FleetConfig {
            tenants: 10,
            threads: 2,
            ..FleetConfig::default()
        };
        let r = run_fleet(&cfg).unwrap();
        assert_eq!(r.tenants.len(), 10);
        for (i, t) in r.tenants.iter().enumerate() {
            assert_eq!(t.id as usize, i, "id order regardless of scheduling");
        }
        assert_eq!(r.latency.count(), 10, "one latency sample per tenant");
        assert!(r.deliveries() > 0);
        assert!(r.total_micros > 0.0);
        // The aggregate really is the per-tenant sum.
        let by_hand = StatsSnapshot::aggregate("fleet", r.tenants.iter().map(|t| &t.stats));
        assert_eq!(r.aggregate, by_hand);
    }

    #[test]
    fn fleet_aggregates_are_thread_count_invariant() {
        let base = FleetConfig {
            tenants: 10,
            threads: 1,
            ..FleetConfig::default()
        };
        let one = run_fleet(&base).unwrap();
        for threads in [2, 4] {
            let many = run_fleet(&FleetConfig { threads, ..base }).unwrap();
            assert_eq!(
                one.fingerprint(),
                many.fingerprint(),
                "threads=1 vs threads={threads}"
            );
        }
    }

    #[test]
    fn scatter_hands_each_item_to_its_static_shard() {
        let shard_of = |i: usize| i * 7 + 1;
        for threads in [1, 3, 4] {
            let ran = scatter((0..13).collect(), threads, shard_of, |w, item: usize| {
                (w, item)
            });
            let want: Vec<(usize, usize)> = (0..13).map(|i| (shard_of(i) % threads, i)).collect();
            assert_eq!(ran, want, "threads={threads}");
        }
    }

    #[test]
    fn a_panicking_pool_job_reaches_the_caller_and_the_next_batch_runs() {
        let caught = std::panic::catch_unwind(|| {
            scatter(
                vec![0u32, 1, 2],
                2,
                |i| i,
                |_, item| {
                    assert_ne!(item, 1, "tenant job failed");
                    item
                },
            )
        });
        let payload = caught.expect_err("the job's panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(message.contains("tenant job failed"), "{message}");
        let cfg = FleetConfig {
            tenants: 4,
            threads: 2,
            ..FleetConfig::default()
        };
        let next = run_fleet(&cfg).expect("the pool survives a panicking job");
        assert_eq!(next.tenants.len(), 4);
        let serial = run_fleet(&FleetConfig { threads: 1, ..cfg }).unwrap();
        assert_eq!(next.fingerprint(), serial.fingerprint());
    }

    #[test]
    fn fingerprint_sees_every_counter() {
        let base = run_fleet(&FleetConfig {
            tenants: 2,
            threads: 1,
            ..FleetConfig::default()
        })
        .unwrap();
        let mut bumped = base.clone();
        bumped.tenants[1].stats.counters[0].1 += 1;
        assert_ne!(base.fingerprint(), bumped.fingerprint(), "one counter +1");
        // A counter name that appears twice must not collapse into one.
        let mut repeated = base.clone();
        let first = repeated.aggregate.counters[0].clone();
        repeated.aggregate.counters.push(first);
        assert_ne!(base.fingerprint(), repeated.fingerprint(), "repeated name");
    }

    #[test]
    fn health_plane_never_perturbs_the_fingerprint() {
        let base = FleetConfig {
            tenants: 5,
            threads: 2,
            health: false,
            ..FleetConfig::default()
        };
        let off = run_fleet(&base).unwrap();
        let on = run_fleet(&FleetConfig {
            health: true,
            ..base
        })
        .unwrap();
        assert_eq!(
            off.fingerprint(),
            on.fingerprint(),
            "health must observe without perturbing: zero simulated cycles"
        );
        assert!(off.fast_path.is_none());
        assert!(on.fast_path.is_some());
    }

    #[test]
    fn healthy_fleet_trips_no_invariants() {
        let cfg = FleetConfig {
            tenants: 10,
            threads: 2,
            ..FleetConfig::default()
        };
        let r = run_fleet(&cfg).unwrap();
        let mut mon = r.health_monitor();
        let findings = mon.finish().to_vec();
        assert!(
            findings.is_empty(),
            "green fleet tripped invariants:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(mon.evaluations() > 0);
        // The registry really spans every layer.
        let reg = mon.registry_ref();
        assert!(reg.get("tenant-health", Some(0), "probe_cycles").is_some());
        assert!(
            reg.get("tenant-health", None, "probe_cycles").is_some(),
            "rollup"
        );
        assert!(reg.get("fleet", None, "tenants") == Some(10));
        assert!(reg.get("fast-path", None, "static_instructions").is_some());
        assert_eq!(reg.histograms().len(), 1, "latency histogram registered");
    }

    #[test]
    fn forced_ring_overflow_trips_the_invariant() {
        // A trace ring too small for one delivery lifecycle: drive a real
        // traced delivery through it, then feed the ring's counters to the
        // monitor the same way the delivery probe does.
        let ring = Rc::new(RingSink::with_capacity(4));
        let mut sys = System::builder()
            .delivery(DeliveryPath::FastUser)
            .trace_sink(ring.clone())
            .build()
            .unwrap();
        sys.measure_null_roundtrip(ExceptionKind::WriteProtect)
            .unwrap();
        assert!(ring.overwritten() > 0, "4 slots cannot hold a lifecycle");

        let mut mon = HealthMonitor::new();
        for inv in fleet_invariants() {
            mon.add_invariant(inv);
        }
        let snap = StatsSnapshot::new("tenant-health")
            .counter("probe_ring_overwritten", ring.overwritten())
            .counter("probe_ring_total_pushed", ring.total_pushed());
        mon.registry().record_snapshot(None, &snap);
        let findings = mon.finish();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].invariant, "trace-ring-overflow");
        assert!(
            findings[0].hint.contains("RingSink"),
            "{}",
            findings[0].hint
        );
    }

    #[test]
    fn fast_path_budget_matches_the_static_bound() {
        let r = run_fleet(&FleetConfig {
            tenants: 1,
            ..FleetConfig::default()
        })
        .unwrap();
        let fp = r.fast_path.as_ref().unwrap();
        assert_eq!(fp.phases.len(), 6, "all Table 3 phases");
        for p in &fp.phases {
            assert!(
                p.measured_instructions <= p.static_instructions,
                "{}: measured {} > static {}",
                p.label,
                p.measured_instructions,
                p.static_instructions
            );
        }
        assert_eq!(fp.total_measured_instructions, fp.static_instructions);
        assert!(fp.static_cycles >= fp.static_instructions);
    }

    #[test]
    fn tenant_checkpoint_round_trips_the_wire() {
        let spec = TenantSpec {
            id: 3,
            suite: Suite::Watch,
            seed: 0xfeed,
            machine: MachineConfig::default().engine(efex_mips::machine::ExecEngine::Interpreter),
        };
        let mut ckpt = TenantCheckpoint::initial(spec, 2);
        advance_tenant(&mut ckpt, 1).unwrap();
        let back = TenantCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(back.spec.id, spec.id);
        assert_eq!(back.spec.suite, spec.suite);
        assert_eq!(back.spec.seed, spec.seed);
        assert_eq!(back.spec.machine, spec.machine);
        assert_eq!((back.legs_total, back.legs_done), (2, 1));
        assert_eq!(back.micros.to_bits(), ckpt.micros.to_bits());
        assert_eq!(
            back.stats.as_ref().unwrap().counters,
            ckpt.stats.as_ref().unwrap().counters
        );
        // Resuming the deserialized checkpoint matches resuming the local
        // one bit-for-bit.
        let a = resume_tenant(&ckpt, false, false).unwrap();
        let b = resume_tenant(&back, false, false).unwrap();
        assert_eq!(a.micros.to_bits(), b.micros.to_bits());
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn migration_preserves_the_aggregate_fingerprint() {
        let cfg = FleetConfig {
            tenants: 5,
            threads: 2,
            legs: 2,
            ..FleetConfig::default()
        };
        let baseline = run_fleet(&cfg).unwrap();
        let migrated = run_fleet_migrate(&cfg).unwrap();
        assert_eq!(migrated.migrations, 5, "every tenant migrated");
        assert_eq!(
            baseline.fingerprint(),
            migrated.fingerprint(),
            "live migration changed the aggregate"
        );
    }

    #[test]
    fn kill_shard_recovers_with_unchanged_fingerprint() {
        let cfg = FleetConfig {
            tenants: 5,
            threads: 2,
            legs: 2,
            ..FleetConfig::default()
        };
        let baseline = run_fleet(&cfg).unwrap();
        let drilled = run_fleet_kill_shard(&cfg, 0).unwrap();
        assert!(drilled.recoveries > 0, "shard 0 owned tenants");
        assert_eq!(
            baseline.fingerprint(),
            drilled.fingerprint(),
            "crash recovery changed the aggregate"
        );
        // Recoveries surface on the health plane without tripping anything.
        let mut mon = drilled.health_monitor();
        let findings = mon.finish().to_vec();
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(
            mon.registry_ref().get("fleet", None, "recovered_tenants"),
            Some(u64::from(drilled.recoveries))
        );
        let recovered_marks: u64 = drilled
            .tenants
            .iter()
            .filter_map(|t| t.health.get("restored_from_checkpoint"))
            .sum();
        assert_eq!(recovered_marks, u64::from(drilled.recoveries));
    }

    #[test]
    fn kill_shard_rejects_impossible_drills() {
        let cfg = FleetConfig {
            tenants: 2,
            threads: 1,
            ..FleetConfig::default()
        };
        assert!(run_fleet_kill_shard(&cfg, 0).is_err(), "no survivor");
        let cfg2 = FleetConfig { threads: 2, ..cfg };
        assert!(
            run_fleet_kill_shard(&cfg2, 5).is_err(),
            "victim out of range"
        );
    }

    #[test]
    fn legged_fleet_is_thread_count_invariant() {
        let base = FleetConfig {
            tenants: 5,
            threads: 1,
            legs: 2,
            ..FleetConfig::default()
        };
        let one = run_fleet(&base).unwrap();
        let two = run_fleet(&FleetConfig { threads: 2, ..base }).unwrap();
        assert_eq!(one.fingerprint(), two.fingerprint());
    }

    #[test]
    fn traced_fleet_exports_tenant_rows() {
        let cfg = FleetConfig {
            tenants: 3,
            threads: 2,
            trace: true,
            ..FleetConfig::default()
        };
        let r = run_fleet(&cfg).unwrap();
        for t in &r.tenants {
            assert!(!t.events.is_empty(), "tenant {} has no events", t.id);
        }
        let json = r.chrome_trace();
        for id in 0..3 {
            assert!(
                json.contains(&format!("tenant-{id:02}")),
                "missing row label for tenant {id}"
            );
        }
    }
}
