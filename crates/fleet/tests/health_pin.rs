//! Pins the health plane's observable output for fixed fleets: the
//! Prometheus and JSONL expositions of a healthy 20-tenant fleet (by
//! length, line count and FNV-1a digest, so any byte that moves fails), its
//! findings, and the full findings of the mod-64 slot-aliasing canary. The
//! values were recorded before the registry, the monitor and the worker pool
//! were rewritten for speed; those rewrites must leave every byte in place.
//!
//! To re-record after an intended change, run this test with
//! `--nocapture` and copy the printed digests.

use efex_fleet::{run_fleet, FleetConfig};
use efex_mips::machine::MachineConfig;

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
const PROM: (usize, usize, u64) = (93_499, 1_200, 6_800_074_445_399_957_544);
const JSONL: (usize, usize, u64) = (131_889, 1_182, 7_714_350_725_731_240_763);

#[test]
fn canary_findings_are_pinned() {
    let report = run_fleet(&FleetConfig {
        tenants: 5,
        threads: 1,
        machine: MachineConfig::default().mod64_slots(true),
        ..FleetConfig::default()
    })
    .expect("aliasing is a performance bug, not a fault");
    let mut mon = report.health_monitor();
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
        "decode-cache-hit-rate",
        Some(0),
        Some(219556),
        "[decode-cache-hit-rate] tenant 0: tenant-health/probe_decode_cache_hits / tenant-health/probe_decode_cache_misses = 0.000 (0 / 767) violates >= 0.5 at cycle 219556\n    > the delivery probe's decode cache stopped being effective; check Machine::dcache_slot (efex-mips) for systematic slot aliasing",
    ),
    (
        "decode-cache-eviction-churn",
        Some(0),
        Some(219556),
        "[decode-cache-eviction-churn] tenant 0: tenant-health/probe_decode_cache_evictions = 61 violates <= 4 at cycle 219556\n    > the delivery probe's decode cache keeps evicting live pages: distinct pages hash to the same slot (check the slot hash's input bits)",
    ),
    (
        "decode-cache-hit-rate",
        Some(1),
        Some(1530589),
        "[decode-cache-hit-rate] tenant 1: tenant-health/probe_decode_cache_hits / tenant-health/probe_decode_cache_misses = 0.000 (0 / 767) violates >= 0.5 at cycle 1530589\n    > the delivery probe's decode cache stopped being effective; check Machine::dcache_slot (efex-mips) for systematic slot aliasing",
    ),
    (
        "decode-cache-eviction-churn",
        Some(1),
        Some(1530589),
        "[decode-cache-eviction-churn] tenant 1: tenant-health/probe_decode_cache_evictions = 61 violates <= 4 at cycle 1530589\n    > the delivery probe's decode cache keeps evicting live pages: distinct pages hash to the same slot (check the slot hash's input bits)",
    ),
    (
        "decode-cache-hit-rate",
        Some(2),
        Some(1635367),
        "[decode-cache-hit-rate] tenant 2: tenant-health/probe_decode_cache_hits / tenant-health/probe_decode_cache_misses = 0.000 (0 / 429) violates >= 0.5 at cycle 1635367\n    > the delivery probe's decode cache stopped being effective; check Machine::dcache_slot (efex-mips) for systematic slot aliasing",
    ),
    (
        "decode-cache-eviction-churn",
        Some(2),
        Some(1635367),
        "[decode-cache-eviction-churn] tenant 2: tenant-health/probe_decode_cache_evictions = 21 violates <= 4 at cycle 1635367\n    > the delivery probe's decode cache keeps evicting live pages: distinct pages hash to the same slot (check the slot hash's input bits)",
    ),
    (
        "decode-cache-hit-rate",
        Some(3),
        Some(1795572),
        "[decode-cache-hit-rate] tenant 3: tenant-health/probe_decode_cache_hits / tenant-health/probe_decode_cache_misses = 0.000 (0 / 767) violates >= 0.5 at cycle 1795572\n    > the delivery probe's decode cache stopped being effective; check Machine::dcache_slot (efex-mips) for systematic slot aliasing",
    ),
    (
        "decode-cache-hit-rate",
        Some(4),
        Some(1795572),
        "[decode-cache-hit-rate] tenant 4: tenant-health/probe_decode_cache_hits / tenant-health/probe_decode_cache_misses = 0.000 (0 / 1019) violates >= 0.5 at cycle 1795572\n    > the delivery probe's decode cache stopped being effective; check Machine::dcache_slot (efex-mips) for systematic slot aliasing",
    ),
    (
        "decode-cache-eviction-churn",
        Some(3),
        Some(1795572),
        "[decode-cache-eviction-churn] tenant 3: tenant-health/probe_decode_cache_evictions = 61 violates <= 4 at cycle 1795572\n    > the delivery probe's decode cache keeps evicting live pages: distinct pages hash to the same slot (check the slot hash's input bits)",
    ),
    (
        "decode-cache-eviction-churn",
        Some(4),
        Some(1795572),
        "[decode-cache-eviction-churn] tenant 4: tenant-health/probe_decode_cache_evictions = 73 violates <= 4 at cycle 1795572\n    > the delivery probe's decode cache keeps evicting live pages: distinct pages hash to the same slot (check the slot hash's input bits)",
    ),
];
