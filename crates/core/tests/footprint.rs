//! The handles a host moves around stay small. A `System` or a
//! `HostProcess` is returned from builders, stored in fleet tenants and
//! passed by value; every byte held inline is copied through the stack on
//! each move. Large tables (the trace-metrics table, physical memory, the
//! block cache) belong on the heap behind them.

use efex_core::{HostProcess, System};

/// The most either handle may hold inline.
const MAX_INLINE_BYTES: usize = 8 * 1024;

#[test]
fn system_and_host_process_stay_small() {
    let system = std::mem::size_of::<System>();
    let process = std::mem::size_of::<HostProcess>();
    println!("System {system} B, HostProcess {process} B");
    assert!(system < MAX_INLINE_BYTES, "System is {system} B inline");
    assert!(
        process < MAX_INLINE_BYTES,
        "HostProcess is {process} B inline"
    );
}
