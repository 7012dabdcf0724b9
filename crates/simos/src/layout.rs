//! The simulated system's memory layout.
//!
//! Kernel structures live in KSEG0 (unmapped, so the kernel's exception
//! handlers never take TLB misses on their own data — the property the
//! paper's fast path relies on). User structures live at conventional
//! Ultrix-like addresses in KUSEG.

/// Hardware page size (4 KB on the MIPS, as in the paper).
pub const PAGE_SIZE: u32 = efex_mips::tlb::PAGE_SIZE;

/// Logical subpage size for the subpage protection emulation (Section
/// 3.2.4): 1 KB.
pub const SUBPAGE_SIZE: u32 = 1024;

/// Subpages per hardware page.
pub const SUBPAGES_PER_PAGE: u32 = PAGE_SIZE / SUBPAGE_SIZE;

/// Default physical memory size: 16 MB, generous for a 1994 DECstation.
pub const DEFAULT_PHYS_BYTES: usize = 16 * 1024 * 1024;

// --- kernel (KSEG0 virtual addresses) ----------------------------------

/// The u-area: per-current-process data the guest fast-path handler reads.
/// Fixed KSEG0 address, rewritten by the host kernel on process switch.
pub const UAREA_VADDR: u32 = 0x8000_0a00;

/// U-area field offsets (bytes).
pub mod uarea {
    /// Bitmask of `ExcCode`s enabled for fast user-level delivery.
    pub const ENABLED_MASK: u32 = 0x00;
    /// User handler virtual address.
    pub const HANDLER: u32 = 0x04;
    /// KSEG0 alias of the pinned user communication page.
    pub const COMM_KSEG0: u32 = 0x08;
    /// Flags (bit 0: process uses the floating-point coprocessor).
    pub const FLAGS: u32 = 0x0c;
    /// Saved-at-exception scratch space used by the guest handler.
    pub const SCRATCH: u32 = 0x10;
}

/// First physical frame handed to the allocator. Frame 0 holds the whole
/// kernel image (both vectors and the fast-path handler) and the u-area;
/// user pages start in the frame after it, so a booted machine backs only
/// the frames its guest uses.
pub const FIRST_USER_FRAME: u32 = 1;

// --- user space (KUSEG virtual addresses) -------------------------------

/// First address past user space: KSEG0 starts here, so no user mapping
/// reaches it.
pub const USER_SPACE_END: u32 = 0x8000_0000;

/// User text segment base.
pub const USER_TEXT_VADDR: u32 = 0x0040_0000;

/// User runtime support (signal trampoline + fast-path veneer) base.
pub const USER_RUNTIME_VADDR: u32 = 0x0041_0000;

/// User data/heap base.
pub const USER_DATA_VADDR: u32 = 0x1000_0000;

/// Top of the user stack (grows down).
pub const USER_STACK_TOP: u32 = 0x7fff_f000;

/// The pinned exception communication page (one 4 KB page, Section 3.2):
/// holds one exception frame per exception type.
pub const COMM_PAGE_VADDR: u32 = 0x7ffe_0000;

/// Byte offsets within one exception frame of the communication page.
/// There is one frame per `ExcCode`, each [`COMM_FRAME_SIZE`] bytes.
pub mod comm {
    /// Saved exception PC.
    pub const EPC: u32 = 0x00;
    /// Saved cause register.
    pub const CAUSE: u32 = 0x04;
    /// Saved bad virtual address (TLB/address exceptions).
    pub const BADVADDR: u32 = 0x08;
    /// Saved `$at`.
    pub const AT: u32 = 0x0c;
    /// Saved `$a0`.
    pub const A0: u32 = 0x10;
    /// Saved `$a1`.
    pub const A1: u32 = 0x14;
    /// In-progress flag (set by the guest save phase on delivery; a nested
    /// exception of the same type overwrites the frame, as the paper
    /// notes).
    pub const ACTIVE: u32 = 0x18;
}

/// Size of one exception frame in the communication page.
pub const COMM_FRAME_SIZE: u32 = 0x20;

/// The communication-page frame address for one exception code.
pub fn comm_frame_vaddr(code: efex_mips::ExcCode) -> u32 {
    COMM_PAGE_VADDR + code.code() * COMM_FRAME_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;
    use efex_mips::ExcCode;

    #[test]
    fn comm_frames_fit_in_one_page() {
        let last = comm_frame_vaddr(ExcCode::Overflow) + COMM_FRAME_SIZE;
        assert!(last <= COMM_PAGE_VADDR + PAGE_SIZE);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the point IS the constants
    fn layout_regions_do_not_overlap() {
        assert!(USER_TEXT_VADDR < USER_RUNTIME_VADDR);
        assert!(USER_RUNTIME_VADDR < USER_DATA_VADDR);
        assert!(USER_DATA_VADDR < COMM_PAGE_VADDR);
        assert!(COMM_PAGE_VADDR + PAGE_SIZE <= USER_STACK_TOP);
    }

    /// The kernel image and the u-area sit below the first user frame, so a
    /// growing kernel image can never share a frame with user pages.
    #[test]
    fn kernel_frames_end_below_the_first_user_frame() {
        /// Bytes reserved for the u-area's fields and scratch space.
        const UAREA_BYTES: u32 = 0x200;
        let first_user_paddr = FIRST_USER_FRAME * PAGE_SIZE;
        let images = crate::kernel::boot_images().expect("boot images assemble");
        let mut kernel_end = 0;
        for seg in images.kernel.segments() {
            assert!(
                seg.addr >= 0x8000_0000,
                "kernel segment {:#x} in KSEG0",
                seg.addr
            );
            let end = seg.addr - 0x8000_0000 + seg.bytes.len() as u32;
            assert!(
                end <= first_user_paddr,
                "kernel segment {:#x} ends at paddr {end:#x}, past frame {FIRST_USER_FRAME}",
                seg.addr
            );
            kernel_end = kernel_end.max(end);
        }
        let uarea = UAREA_VADDR - 0x8000_0000;
        assert!(
            uarea >= kernel_end,
            "u-area must be clear of the kernel image"
        );
        assert!(uarea + UAREA_BYTES <= first_user_paddr);
    }

    #[test]
    fn subpage_constants() {
        assert_eq!(SUBPAGES_PER_PAGE, 4);
    }
}
