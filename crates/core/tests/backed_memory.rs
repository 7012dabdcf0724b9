//! A booted system backs only the physical memory its guest writes.
//!
//! `Memory` stores bytes only up to the highest page written. The kernel
//! image and u-area fill frame 0, and the kernel hands out user frames
//! upward from `FIRST_USER_FRAME` (frame 1). So a kernel with the default
//! 16 MB of physical memory that runs a Table 2 row, or a host that touches
//! one page of a large heap, backs a few pages. A write near the top of
//! physical memory, or user frames that start far above the kernel, would
//! bring back a large fill on every boot and clone; this test catches that.

use efex_core::{DeliveryPath, ExceptionKind, GuestMem, HostProcess, Prot, System};
use efex_simos::layout::DEFAULT_PHYS_BYTES;

/// Most host memory a booted system running one row, or a host that touched
/// one heap page, may back.
const MAX_BACKED: usize = 64 << 10;

#[test]
fn a_table2_row_backs_at_most_64_kb() {
    for (path, kind) in [
        (DeliveryPath::FastUser, ExceptionKind::WriteProtect),
        (DeliveryPath::UnixSignals, ExceptionKind::Breakpoint),
    ] {
        let mut sys = System::builder().delivery(path).build().expect("boot");
        let mem = sys.kernel().machine().mem();
        assert_eq!(mem.size(), DEFAULT_PHYS_BYTES);
        sys.measure_null_roundtrip(kind).expect("row runs");
        let backed = sys.kernel().machine().mem().backed_bytes();
        assert!(
            backed <= MAX_BACKED,
            "{path:?}/{kind:?} backs {backed} bytes of {DEFAULT_PHYS_BYTES}"
        );
        let clone = sys.kernel().machine().clone();
        assert_eq!(clone.mem().backed_bytes(), backed, "a clone backs the same");
    }
}

#[test]
fn a_host_with_a_large_heap_backs_only_the_pages_it_touches() {
    let mut host = HostProcess::builder().build().expect("boot");
    let heap = host.alloc_region(2 << 20, Prot::ReadWrite).expect("heap");
    host.store_u32(heap + 4096, 7).expect("touch one page");
    assert_eq!(host.load_u32(heap + 4096).unwrap(), 7);
    let backed = host.kernel().machine().mem().backed_bytes();
    assert!(
        backed <= MAX_BACKED,
        "a host with a 2 MB heap and one touched page backs {backed} bytes"
    );
}
