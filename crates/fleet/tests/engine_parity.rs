//! Fleet-level bit-exactness of the machine's execution accelerator: the
//! same fleet run under the reference interpreter and under the superblock
//! engine must produce identical simulated results: per-tenant
//! `StatsSnapshot`s, simulated times, and the thread-count-invariant
//! aggregate fingerprint. Only host-side wall time (and the block cache's
//! own counters) may differ.

use efex_fleet::{run_fleet, FleetConfig};
use efex_mips::machine::{ExecEngine, MachineConfig};

#[test]
fn accelerators_are_bit_exact_with_the_reference() {
    let cfg = FleetConfig {
        tenants: 10, // every suite twice, distinct seeds
        threads: 2,
        ..FleetConfig::default()
    };
    let reference = run_fleet(&FleetConfig {
        machine: MachineConfig::default().engine(ExecEngine::Interpreter),
        ..cfg
    })
    .expect("reference fleet");
    let superblock = run_fleet(&FleetConfig {
        machine: MachineConfig::default().engine(ExecEngine::Superblock),
        ..cfg
    })
    .expect("superblock fleet");
    assert_eq!(
        reference.fingerprint(),
        superblock.fingerprint(),
        "the superblock engine must agree with the reference on every deterministic result"
    );
    for (a, b) in reference.tenants.iter().zip(&superblock.tenants) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.stats, b.stats, "tenant {} StatsSnapshot drifted", a.id);
        assert_eq!(a.micros, b.micros, "tenant {} simulated time drifted", a.id);
    }
}

#[test]
fn superblock_fleet_health_probe_stays_meaningful() {
    // The delivery probe single-steps its guest, so its health counters
    // read the same whichever engine the tenants run.
    let sb = run_fleet(&FleetConfig {
        tenants: 5,
        threads: 1,
        machine: MachineConfig::default().engine(ExecEngine::Superblock),
        ..FleetConfig::default()
    })
    .expect("superblock fleet");
    let mut mon = sb.health_monitor();
    let findings = mon.finish().to_vec();
    assert!(
        findings.is_empty(),
        "superblock fleet must be healthy:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
