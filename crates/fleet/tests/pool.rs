//! The fleet's worker pool is process-wide: fleets of different widths run
//! on the same long-lived workers, the pool grows only to the widest fleet
//! asked for, and the width never shows in the results. This file holds a
//! single test so that no other test in its process grows the pool.

use efex_fleet::{run_fleet, FleetConfig};

/// Threads of this process named as fleet workers (Linux only; `None`
/// elsewhere).
fn fleet_workers() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("efex-fleet-"))
            .count(),
    )
}

#[test]
fn fleets_of_any_width_share_the_pool_and_one_fingerprint() {
    let base = FleetConfig {
        tenants: 10,
        ..FleetConfig::default()
    };
    let mut first = None;
    for threads in [4, 1, 2, 4] {
        let report = run_fleet(&FleetConfig { threads, ..base }).expect("healthy fleet");
        assert_eq!(report.threads, threads);
        let print = report.fingerprint();
        assert_eq!(
            first.get_or_insert_with(|| print.clone()),
            &print,
            "threads={threads}"
        );
        if let Some(workers) = fleet_workers() {
            assert_eq!(workers, 4, "after threads={threads}");
        }
    }
}
