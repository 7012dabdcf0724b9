//! Pins the health plane's observable output for fixed fleets: the
//! Prometheus and JSONL expositions of a healthy 20-tenant fleet (by
//! length, line count and FNV-1a digest, so any byte that moves fails), its
//! findings, and the full findings of a canary whose invariants are
//! deliberately violated. A rewrite of the registry, the monitor or the
//! worker pool must leave every byte in place.
//!
//! To re-record after an intended change, run this test with
//! `--nocapture` and copy the printed digests.

use efex_fleet::{fleet_invariants, run_fleet, FleetConfig, DEFAULT_HEALTH_INTERVAL_CYCLES};
use efex_health::{Invariant, MetricRef};

/// FNV-1a, 64-bit: a stable digest with no dependency.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(bytes, lines, digest)` of one exposition.
fn shape(text: &str) -> (usize, usize, u64) {
    (text.len(), text.lines().count(), fnv1a(text))
}

#[test]
fn healthy_fleet_expositions_are_pinned() {
    let report = run_fleet(&FleetConfig {
        tenants: 20,
        threads: 2,
        ..FleetConfig::default()
    })
    .expect("healthy fleet");
    let mut mon = report.health_monitor();
    let findings: Vec<String> = mon.finish().iter().map(|f| f.to_string()).collect();
    let prom = efex_health::to_prometheus(&mon);
    let jsonl = efex_health::to_jsonl(&mon);
    println!("prom {:?}", shape(&prom));
    println!("jsonl {:?}", shape(&jsonl));
    println!("evaluations {}", mon.evaluations());
    assert!(findings.is_empty(), "{findings:#?}");
    assert_eq!(mon.evaluations(), EVALUATIONS);
    assert_eq!(shape(&prom), PROM);
    assert_eq!(shape(&jsonl), JSONL);
}

const EVALUATIONS: u64 = 17;
const PROM: (usize, usize, u64) = (82_922, 1_074, 12_733_909_578_298_456_649);
const JSONL: (usize, usize, u64) = (117_154, 1_056, 10_582_533_716_939_787_154);

/// The canary: the same 5-tenant fleet's monitor armed with two more
/// per-tenant invariants that every healthy tenant violates, over counters
/// the fleet already records. No machine option is needed to make a tenant
/// sick. The invariants are armed before the tenants are replayed, so this
/// pins how the monitor reports findings — their order, tenant scope, the
/// replay-clock cycle at which each first fires, and rendered text.
#[test]
fn canary_findings_are_pinned() {
    let report = run_fleet(&FleetConfig {
        tenants: 5,
        threads: 1,
        ..FleetConfig::default()
    })
    .expect("healthy fleet");
    let th = |name: &str| MetricRef::new("tenant-health", name);
    let mut invariants = fleet_invariants();
    invariants.push(
        Invariant::ratio_max("canary-probe-share", th("probe_cycles"), th("cycles"), 0.0)
            .per_tenant()
            .hint("deliberately violated: every tenant's delivery probe charges cycles"),
    );
    invariants.push(
        Invariant::max("canary-workload-cycles", th("cycles"), 0)
            .per_tenant()
            .hint("deliberately violated: every tenant's workload runs"),
    );
    let mut mon = report.health_monitor_with(DEFAULT_HEALTH_INTERVAL_CYCLES, invariants);
    let got: Vec<(String, Option<u32>, Option<u64>, String)> = mon
        .finish()
        .iter()
        .map(|f| (f.invariant.clone(), f.tenant, f.cycles, f.to_string()))
        .collect();
    for g in &got {
        println!("{g:?}");
    }
    let want: Vec<(String, Option<u32>, Option<u64>, String)> = CANARY
        .iter()
        .map(|&(inv, tenant, cycles, text)| (inv.to_string(), tenant, cycles, text.to_string()))
        .collect();
    assert_eq!(got, want);
}

type Pinned = (&'static str, Option<u32>, Option<u64>, &'static str);

const CANARY: &[Pinned] = &[
    (
        "canary-probe-share",
        Some(0),
        Some(219556),
        "[canary-probe-share] tenant 0: tenant-health/probe_cycles / tenant-health/cycles = 0.332 (54725 / 164831) violates <= 0 at cycle 219556\n    > deliberately violated: every tenant's delivery probe charges cycles",
    ),
    (
        "canary-workload-cycles",
        Some(0),
        Some(219556),
        "[canary-workload-cycles] tenant 0: tenant-health/cycles = 164831 violates <= 0 at cycle 219556\n    > deliberately violated: every tenant's workload runs",
    ),
    (
        "canary-probe-share",
        Some(1),
        Some(1530589),
        "[canary-probe-share] tenant 1: tenant-health/probe_cycles / tenant-health/cycles = 0.044 (54725 / 1256308) violates <= 0 at cycle 1530589\n    > deliberately violated: every tenant's delivery probe charges cycles",
    ),
    (
        "canary-workload-cycles",
        Some(1),
        Some(1530589),
        "[canary-workload-cycles] tenant 1: tenant-health/cycles = 1256308 violates <= 0 at cycle 1530589\n    > deliberately violated: every tenant's workload runs",
    ),
    (
        "canary-probe-share",
        Some(2),
        Some(1635367),
        "[canary-probe-share] tenant 2: tenant-health/probe_cycles / tenant-health/cycles = 0.339 (26501 / 78277) violates <= 0 at cycle 1635367\n    > deliberately violated: every tenant's delivery probe charges cycles",
    ),
    (
        "canary-workload-cycles",
        Some(2),
        Some(1635367),
        "[canary-workload-cycles] tenant 2: tenant-health/cycles = 78277 violates <= 0 at cycle 1635367\n    > deliberately violated: every tenant's workload runs",
    ),
    (
        "canary-probe-share",
        Some(3),
        Some(1795572),
        "[canary-probe-share] tenant 3: tenant-health/probe_cycles / tenant-health/cycles = 14.236 (54725 / 3844) violates <= 0 at cycle 1795572\n    > deliberately violated: every tenant's delivery probe charges cycles",
    ),
    (
        "canary-probe-share",
        Some(4),
        Some(1795572),
        "[canary-probe-share] tenant 4: tenant-health/probe_cycles / tenant-health/cycles = 1.344 (58283 / 43353) violates <= 0 at cycle 1795572\n    > deliberately violated: every tenant's delivery probe charges cycles",
    ),
    (
        "canary-workload-cycles",
        Some(3),
        Some(1795572),
        "[canary-workload-cycles] tenant 3: tenant-health/cycles = 3844 violates <= 0 at cycle 1795572\n    > deliberately violated: every tenant's workload runs",
    ),
    (
        "canary-workload-cycles",
        Some(4),
        Some(1795572),
        "[canary-workload-cycles] tenant 4: tenant-health/cycles = 43353 violates <= 0 at cycle 1795572\n    > deliberately violated: every tenant's workload runs",
    ),
];
