//! Pins the gc fleet tenant's output for seeds 0–7.
//!
//! The fleet's determinism gates compare two runs of the same binary, so a
//! change that moved the tenant's simulated numbers consistently (say, a
//! different page handed out by the allocator, which changes which pages
//! fault and which runs `reprotect_old` merges) would pass them unseen.
//! These values were recorded from `tenant_workload` before the heap's
//! object table was indexed by page; any host-side rework of the collector
//! must reproduce them bit for bit.

use efex_gc::workloads::tenant_workload;

/// `(seed, micros as f64 bits, [minor, major, allocated, bytes_allocated,
/// freed, promoted, barrier_faults, software_checks, remembered_slots])`.
const PINNED: [(u64, u64, [u64; 9]); 8] = [
    (
        0,
        0x40ad_17eb_851e_b852,
        [1, 0, 2033, 81792, 0, 1, 16, 0, 0],
    ),
    (
        1,
        0x40b5_37b8_51eb_851f,
        [2, 0, 2160, 82808, 1920, 129, 23, 0, 0],
    ),
    (
        2,
        0x40b6_11eb_851e_b852,
        [2, 0, 2287, 83824, 1920, 129, 26, 0, 0],
    ),
    (
        3,
        0x40b7_1047_ae14_7ae1,
        [2, 0, 2414, 84840, 1920, 129, 31, 0, 0],
    ),
    (
        4,
        0x40b7_c6cc_cccc_cccd,
        [2, 0, 2541, 85856, 1920, 129, 32, 0, 0],
    ),
    (
        5,
        0x40b8_440a_3d70_a3d7,
        [2, 0, 2668, 86872, 1920, 129, 28, 0, 0],
    ),
    (
        6,
        0x40b9_307a_e147_ae14,
        [2, 0, 2795, 87888, 1920, 129, 32, 0, 0],
    ),
    (
        7,
        0x40b9_d514_7ae1_47ae,
        [2, 0, 2922, 88904, 1920, 129, 32, 0, 0],
    ),
];

const COUNTERS: [&str; 9] = [
    "minor_collections",
    "major_collections",
    "objects_allocated",
    "bytes_allocated",
    "objects_freed",
    "objects_promoted",
    "barrier_faults",
    "software_checks",
    "remembered_slots",
];

#[test]
fn tenant_workload_matches_pinned_output() {
    for (seed, micros_bits, counters) in PINNED {
        let run = tenant_workload(seed).expect("tenant runs");
        assert_eq!(
            run.micros.to_bits(),
            micros_bits,
            "seed {seed}: micros {} (pinned {})",
            run.micros,
            f64::from_bits(micros_bits)
        );
        let expected: Vec<(String, u64)> = COUNTERS
            .iter()
            .zip(counters)
            .map(|(name, value)| ((*name).to_string(), value))
            .collect();
        assert_eq!(run.stats.counters, expected, "seed {seed}");
    }
}
