//! The superblock cache must keep every Table 2 row's hot blocks resident:
//! a cache that misses is architecturally invisible, so only a count of
//! its misses can catch it. With one block per set, the kernel return
//! block at `0x8000_00b8` and the fast-user breakpoint handler's
//! `uh_restore` block at `0x0040_0098` (both in set 0x2e once the loop
//! count needs a two-word `li`) evicted each other on every delivery: two
//! rebuilds per round trip while every correctness test still passed.
//! Every program here therefore runs with a loop count above 0xffff and is
//! measured over a window of round trips inside one run.
//!
//! Each row's bound sits just above what the row needs today. The
//! hardware-vectored row's two misses per round trip are its two
//! block-ending ops (`mtc0 $uxt` and `xpcu`), which run as single steps;
//! the kernel-routed rows rebuild the few blocks the kernel's page-table
//! and signal-frame work invalidates.

use efex_core::debug_progs as progs;
use efex_core::{DeliveryPath, System};
use efex_mips::asm::assemble;
use efex_mips::Reg;

/// Loop count of every program: above 0xffff, so `li $s0, n` takes two
/// words and the fast-user breakpoint `uh_restore` block lands at
/// `0x0040_0098`.
const TRIPS: u32 = 150_000;
/// Instructions per `run_user` slice: long, so budget boundaries cut few
/// blocks.
const SLICE: u64 = 100_000;
/// Round trips before the measured ones: every block of the loop is built.
const WARMUP_TRIPS: u32 = 1_000;
/// Round trips measured.
const MEASURED_TRIPS: u32 = 10_000;

/// One Table 2 row and its bound on superblock misses per round trip.
struct Row {
    name: &'static str,
    path: DeliveryPath,
    source: fn(u32) -> String,
    max_misses_per_trip: f64,
}

const ROWS: [Row; 7] = [
    Row {
        name: "fast-user.breakpoint",
        path: DeliveryPath::FastUser,
        source: progs::fast_simple_bench,
        // One block per set gave 1.998.
        max_misses_per_trip: 0.01,
    },
    Row {
        name: "fast-user.unaligned",
        path: DeliveryPath::FastUser,
        source: progs::fast_unaligned_specialized_bench,
        max_misses_per_trip: 0.01,
    },
    Row {
        name: "hardware-vectored.breakpoint",
        path: DeliveryPath::HardwareVectored,
        source: progs::hw_simple_bench,
        max_misses_per_trip: 2.01,
    },
    Row {
        name: "fast-user.write-protect",
        path: DeliveryPath::FastUser,
        source: progs::fast_prot_bench,
        max_misses_per_trip: 0.05,
    },
    Row {
        name: "fast-user.subpage",
        path: DeliveryPath::FastUser,
        source: progs::fast_subpage_bench,
        max_misses_per_trip: 0.05,
    },
    Row {
        name: "unix-signals.breakpoint",
        path: DeliveryPath::UnixSignals,
        source: progs::unix_simple_bench,
        max_misses_per_trip: 0.1,
    },
    Row {
        name: "unix-signals.write-protect",
        path: DeliveryPath::UnixSignals,
        source: progs::unix_prot_bench,
        max_misses_per_trip: 0.2,
    },
];

/// Runs in [`SLICE`]-instruction slices until at least `trips` round
/// trips are done, then single-steps to the start of the next one at
/// `loop_pc`, where `$s0` holds the round trips left (elsewhere a handler
/// or the signal trampoline may be using it). Single steps never touch the
/// superblock cache. Returns the superblock misses and round trips done.
fn run_until(sys: &mut System, loop_pc: u32, trips: u32) -> (u64, u32) {
    loop {
        let m = sys.kernel().machine();
        if m.user_mode() && m.cpu().pc == loop_pc {
            let done = TRIPS - m.cpu().reg(Reg::S0);
            if done >= trips {
                return (m.superblock_stats().1, done);
            }
            sys.kernel_mut().run_user(SLICE).unwrap();
        } else {
            sys.kernel_mut().run_user(1).unwrap();
        }
    }
}

#[test]
fn every_row_keeps_its_blocks_resident() {
    for row in &ROWS {
        let source = (row.source)(TRIPS);
        let loop_pc = assemble(&source).unwrap().symbol("loop").unwrap();
        let mut sys = System::builder().delivery(row.path).build().unwrap();
        sys.run_program(&source, SLICE).unwrap();
        let (misses_before, trips_before) = run_until(&mut sys, loop_pc, WARMUP_TRIPS);
        let (misses_after, trips_after) =
            run_until(&mut sys, loop_pc, trips_before + MEASURED_TRIPS);
        let per_trip =
            (misses_after - misses_before) as f64 / f64::from(trips_after - trips_before);
        println!("{}: {per_trip:.3} misses per round trip", row.name);
        assert!(
            per_trip <= row.max_misses_per_trip,
            "{}: {per_trip:.3} superblock misses per round trip, bound {}",
            row.name,
            row.max_misses_per_trip
        );
    }
}
