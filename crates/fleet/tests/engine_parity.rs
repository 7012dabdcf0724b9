//! Fleet-level bit-exactness of the machine's execution accelerators: the
//! same fleet run under the reference configuration (interpreter, decode
//! cache on) and under every accelerator variant — the superblock engine,
//! the decode cache off — must produce identical simulated results:
//! per-tenant `StatsSnapshot`s, simulated times, and the
//! thread-count-invariant aggregate fingerprint. Only host-side wall time
//! (and the accelerators' own cache counters) may differ.

use efex_fleet::{run_fleet, FleetConfig};
use efex_mips::machine::{ExecEngine, MachineConfig};

#[test]
fn accelerators_are_bit_exact_with_the_reference() {
    let cfg = FleetConfig {
        tenants: 10, // every suite twice, distinct seeds
        threads: 2,
        ..FleetConfig::default()
    };
    let reference = run_fleet(&cfg).expect("reference fleet");
    let superblock = MachineConfig::default().engine(ExecEngine::Superblock);
    for (name, machine) in [
        ("superblock", superblock),
        (
            "decode cache off",
            MachineConfig::default().decode_cache(false),
        ),
        (
            "superblock, decode cache off",
            superblock.decode_cache(false),
        ),
    ] {
        let variant = run_fleet(&FleetConfig { machine, ..cfg }).expect(name);
        assert_eq!(
            reference.fingerprint(),
            variant.fingerprint(),
            "{name}: must agree with the reference on every deterministic result"
        );
        for (a, b) in reference.tenants.iter().zip(&variant.tenants) {
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.stats, b.stats,
                "{name}: tenant {} StatsSnapshot drifted",
                a.id
            );
            assert_eq!(
                a.micros, b.micros,
                "{name}: tenant {} simulated time drifted",
                a.id
            );
        }
    }
}

#[test]
fn superblock_fleet_health_probe_stays_meaningful() {
    // The delivery probe pins the reference interpreter, so decode-cache
    // effectiveness invariants hold no matter which engine tenants run.
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
