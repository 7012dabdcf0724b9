//! The superblock cache must keep the fast-user breakpoint row's hot blocks
//! resident. With one block per set, the kernel return block at
//! `0x8000_00b8` and the user loop block at `0x0040_0098` (both in set
//! 0x2e once the loop count needs a two-word `li`) evicted each other on
//! every delivery: two rebuilds per round trip while every correctness
//! test still passed.

use efex_core::debug_progs::fast_simple_bench;
use efex_core::{DeliveryPath, System};

/// Superblock misses and exceptions taken so far.
fn counts(sys: &System) -> (u64, u64) {
    let m = sys.kernel().machine();
    (m.superblock_stats().1, m.exceptions_taken())
}

#[test]
fn fast_user_breakpoint_round_trips_do_not_rebuild_blocks() {
    let mut sys = System::builder()
        .delivery(DeliveryPath::FastUser)
        .build()
        .unwrap();
    let k = sys.kernel_mut();
    let prog = k.load_user_program(&fast_simple_bench(150_000)).unwrap();
    let sp = k.setup_stack(16).unwrap();
    k.exec(prog.entry(), sp);
    // Warm-up: enable the fast path and build every block of the loop.
    k.run_user(20_000).unwrap();
    let (misses_before, trips_before) = counts(&sys);
    // Long slices, so budget boundaries cut few blocks.
    while counts(&sys).1 - trips_before < 10_000 {
        sys.kernel_mut().run_user(100_000).unwrap();
    }
    let (misses_after, trips_after) = counts(&sys);
    let per_trip = (misses_after - misses_before) as f64 / (trips_after - trips_before) as f64;
    assert!(
        per_trip <= 0.01,
        "{per_trip:.3} superblock misses per round trip (one block per set gave 2.000)"
    );
}
