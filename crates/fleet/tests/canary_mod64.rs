//! The health-plane canary: re-introduce the decode cache's historical
//! mod-64 slot-aliasing bug (via the test-only slot-hash hook) and prove the
//! always-on monitor catches it with an actionable finding.
//!
//! The pathology is *architecturally invisible* — every delivery still
//! produces bit-identical results, just slower — which is exactly why it
//! needs a health invariant rather than a correctness test. The hook rides
//! in per-tenant through `MachineConfig::mod64_slots`.

use efex_fleet::{run_fleet, FleetConfig};
use efex_mips::machine::MachineConfig;

#[test]
fn mod64_slot_aliasing_trips_the_hit_rate_invariant() {
    let cfg = FleetConfig {
        tenants: 5, // one tenant per suite
        threads: 1,
        ..FleetConfig::default()
    };

    // With the pathological slot hash: consecutive code pages alias to the
    // same 64 slots, so the delivery probe's decode cache thrashes.
    let sick = run_fleet(&FleetConfig {
        machine: MachineConfig::default().mod64_slots(true),
        ..cfg
    });
    let sick = sick.expect("aliasing is a performance bug, not a fault");

    let mut mon = sick.health_monitor();
    let findings = mon.finish().to_vec();
    assert!(!mon.healthy(), "the canary must trip the monitor");
    let hit_rate: Vec<_> = findings
        .iter()
        .filter(|f| f.invariant == "decode-cache-hit-rate")
        .collect();
    assert!(
        !hit_rate.is_empty(),
        "expected a decode-cache-hit-rate finding, got:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    for f in &hit_rate {
        assert!(f.tenant.is_some(), "hit-rate scope is per-tenant");
        // The finding must be actionable: raw operands plus a hint that
        // points at the slot hash.
        assert!(
            f.observed.contains("probe_decode_cache_hits")
                && f.observed.contains("probe_decode_cache_misses"),
            "{}",
            f.observed
        );
        assert!(f.bound.starts_with(">="), "{}", f.bound);
        assert!(
            f.hint.contains("dcache_slot") && f.hint.contains("aliasing"),
            "hint must point at the slot hash: {}",
            f.hint
        );
    }

    // Same fleet with the real slot hash: bit-identical deterministic
    // results (the cache is result-transparent either way), zero findings.
    let green = run_fleet(&cfg).expect("green fleet");
    assert_eq!(
        green.fingerprint(),
        sick.fingerprint(),
        "aliasing must stay architecturally invisible — that's why the \
         health plane exists"
    );
    let mut green_mon = green.health_monitor();
    assert!(
        green_mon.finish().is_empty(),
        "the fixed slot hash must be clean"
    );
}
