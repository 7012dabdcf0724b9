//! A booted system backs only the physical memory its guest writes.
//!
//! `Memory` stores bytes only up to the highest page written, and the kernel
//! hands out frames upward from `FIRST_USER_FRAME` (1 MB). So a kernel with
//! the default 16 MB of physical memory that runs a Table 2 row backs little
//! more than 1 MB. A write near the top of physical memory would bring back
//! the 16 MB fill on every boot and clone; this test catches that.

use efex_core::{DeliveryPath, ExceptionKind, System};
use efex_simos::layout::DEFAULT_PHYS_BYTES;

/// Most host memory a booted system running one row may back.
const MAX_BACKED: usize = 2 << 20;

#[test]
fn a_table2_row_backs_at_most_two_megabytes() {
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
