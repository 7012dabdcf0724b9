//! The fast user-level exception path (Section 3.2 of the paper).
//!
//! The first-level handler is **guest assembly**, assembled at boot and
//! installed at the R3000 general exception vector. Its phases carry the
//! same names as the rows of the paper's Table 3 and are delimited by
//! labels (prefix `fexc_`), so a [`efex_mips::profile::Profiler`] can
//! measure the per-phase dynamic instruction counts.
//!
//! The handler:
//!
//! 1. **decode** — extracts the exception code and checks the fault came
//!    from user mode;
//! 2. **compat** — the "Ultrix compatibility check": tests the per-process
//!    enabled-exception mask in the u-area;
//! 3. **save** — saves the exception PC, cause, bad address, and the
//!    scratch registers (`$at`, `$a0`, `$a1`) it is about to use into the
//!    per-exception frame of the pinned communication page, addressed
//!    through its KSEG0 alias so the handler itself can never take a TLB
//!    miss. This phase is the frame's only writer; a user TLB miss the
//!    refill handler cannot satisfy is re-raised at the general vector so
//!    that this phase runs for it too;
//! 4. **fpcheck** — checks whether floating-point state would need saving;
//! 5. **tlbcheck** — TLB-type exceptions (protection faults) escape to the
//!    kernel's C-language routine, which must read page tables
//!    (Section 3.2.2);
//! 6. **vector** — loads the user handler address and returns from the
//!    exception straight into it.
//!
//! Anything that fails a check falls through to the standard (Ultrix-style)
//! path. The user handler returns by **jumping to the saved exception PC**
//! — no kernel re-entry, which is where the order-of-magnitude win comes
//! from.

use efex_mips::exception::ExcCode;

/// Per-process fast-exception state (established by the `uexc_enable`
/// system call).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FastExcState {
    /// Bitmask of enabled `ExcCode`s.
    pub enabled_mask: u32,
    /// User handler virtual address.
    pub handler: u32,
    /// User virtual address of the pinned communication page.
    pub comm_vaddr: u32,
    /// KSEG0 alias of the communication page's frame.
    pub comm_kseg0: u32,
    /// Eager amplification (Section 3.2.3): amplify page access before
    /// vectoring protection faults.
    pub eager_amplification: bool,
}

impl FastExcState {
    /// Disabled state.
    pub fn new() -> FastExcState {
        FastExcState::default()
    }

    /// Whether fast delivery is enabled for `code`.
    pub fn enabled_for(&self, code: ExcCode) -> bool {
        self.enabled_mask & (1 << code.code()) != 0
    }

    /// Exception codes a process is allowed to enable: every synchronous
    /// exception except system calls, coprocessor-unusable, and (per the
    /// paper) page faults — which are TLB exceptions the kernel filters
    /// later, so the TLB codes themselves are permitted here.
    pub fn allowed_mask() -> u32 {
        let mut mask = 0;
        for code in ExcCode::ALL {
            let allowed =
                code.is_synchronous() && !matches!(code, ExcCode::Syscall | ExcCode::CopUnusable);
            if allowed {
                mask |= 1 << code.code();
            }
        }
        mask
    }
}

/// Host-call numbers used by the guest kernel stubs.
pub mod hcalls {
    /// User TLB refill (from the UTLB vector).
    pub const UTLB_REFILL: u32 = 0;
    /// Standard-path exception processing (Ultrix-style signals, syscalls,
    /// kernel faults).
    pub const STANDARD_EXC: u32 = 1;
    /// Fast-path TLB-type exception: the kernel must consult page tables
    /// before completing user delivery.
    pub const FAST_TLB_EXC: u32 = 2;
}

/// The guest kernel image source: both hardware vectors plus the fast-path
/// handler. Phase labels `fexc_*` mark the Table 3 regions; `fexc_end`
/// marks the end of the handler for profiling.
pub const KERNEL_ASM: &str = r#"
# ---- efex simulated kernel: exception vectors -----------------------------

.org 0x80000000                 # UTLB refill vector (user-space TLB miss)
    hcall 0                     # host kernel refills from the page table

.org 0x80000080                 # general exception vector
# Phase 1: decode the exception --------------------------------------------
fexc_decode:
    mfc0  $k0, $cause
    srl   $k0, $k0, 2
    andi  $k0, $k0, 0x1f        # k0 = ExcCode
    mfc0  $k1, $status
    andi  $k1, $k1, 0x8         # KUp: did the fault come from user mode?
    beqz  $k1, fexc_fallback
    nop

# Phase 2: Ultrix compatibility check --------------------------------------
fexc_compat:
    lui   $k1, 0x8000
    ori   $k1, $k1, 0x0a00      # k1 = &u-area
    lw    $k1, 0($k1)           # enabled-exception mask
    srlv  $k1, $k1, $k0
    andi  $k1, $k1, 1
    beqz  $k1, fexc_fallback    # not enabled: standard path
    nop

# Phase 3: save partial state into the communication page ------------------
# The comm page is addressed through its KSEG0 alias, so no TLB miss can
# occur while the original exception state is still live in CP0.
fexc_save:
    lui   $k1, 0x8000
    ori   $k1, $k1, 0x0a00
    lw    $k1, 8($k1)           # KSEG0 alias of the comm page
    sll   $k0, $k0, 5           # frame = comm + 32*code
    addu  $k1, $k1, $k0
    srl   $k0, $k0, 5           # k0 = code again
    sw    $at, 12($k1)          # scratch the kernel contract clobbers
    sw    $a0, 16($k1)
    sw    $a1, 20($k1)
    mfc0  $a0, $epc
    sw    $a0, 0($k1)
    mfc0  $a0, $cause
    sw    $a0, 4($k1)
    mfc0  $a0, $badvaddr
    sw    $a0, 8($k1)
    li    $a0, 1
    sw    $a0, 24($k1)          # mark the frame active

# Phase 4: floating point check --------------------------------------------
fexc_fpcheck:
    lui   $a0, 0x8000
    ori   $a0, $a0, 0x0a00
    lw    $a0, 12($a0)          # u-area flags
    andi  $a0, $a0, 1           # FP-in-use bit
    bnez  $a0, fexc_fallback    # FP save not supported on the fast path
    nop

# Phase 5: check for TLB fault ---------------------------------------------
fexc_tlbcheck:
    sltiu $a0, $k0, 4           # ExcCodes 1..3 are the TLB exceptions
    beqz  $a0, fexc_vector
    nop
    hcall 2                     # kernel reads page tables, finishes delivery

# Phase 6: vector to user ---------------------------------------------------
fexc_vector:
    lui   $k0, 0x8000
    lw    $k0, 0x0a04($k0)      # user handler address from the u-area
    jr    $k0
    rfe                         # (delay slot) pop to user mode
fexc_end:

# ---- standard path escape --------------------------------------------------
fexc_fallback:
    hcall 1
"#;

/// Names of the Table 3 phases, in handler order, paired with the paper's
/// reported instruction counts for comparison.
pub const TABLE3_PHASES: [(&str, &str, u64); 6] = [
    ("fexc_decode", "Decode Exception", 6),
    ("fexc_compat", "Compatibility Check", 11),
    ("fexc_save", "Save Partial State", 31),
    ("fexc_fpcheck", "Floating Point Check", 6),
    ("fexc_tlbcheck", "Check for TLB Fault", 8),
    ("fexc_vector", "Vector to User", 3),
];

#[cfg(test)]
mod tests {
    use super::*;
    use efex_mips::asm::assemble;

    #[test]
    fn kernel_asm_assembles_with_phase_labels() {
        let prog = assemble(KERNEL_ASM).expect("kernel image must assemble");
        for (label, _, _) in TABLE3_PHASES {
            assert!(prog.symbol(label).is_some(), "missing {label}");
        }
        assert!(prog.symbol("fexc_fallback").is_some());
        assert!(prog.symbol("fexc_end").is_some());
        // Vector addresses are fixed by the architecture.
        assert_eq!(prog.segments()[0].addr, 0x8000_0000);
        assert_eq!(prog.segments()[1].addr, 0x8000_0080);
    }

    #[test]
    fn phases_are_ordered_and_compact() {
        let prog = assemble(KERNEL_ASM).unwrap();
        let mut prev = 0;
        for (label, _, _) in TABLE3_PHASES {
            let addr = prog.symbol(label).unwrap();
            assert!(addr > prev || prev == 0, "{label} out of order");
            prev = addr;
        }
        // The whole fast path must stay small — the point of the design.
        let size = prog.symbol("fexc_end").unwrap() - prog.symbol("fexc_decode").unwrap();
        assert!(
            size / 4 < 80,
            "handler grew past ~80 instructions: {}",
            size / 4
        );
    }

    #[test]
    fn enabled_mask_gating() {
        let mut st = FastExcState::new();
        st.enabled_mask = 1 << ExcCode::AddrErrLoad.code();
        assert!(st.enabled_for(ExcCode::AddrErrLoad));
        assert!(!st.enabled_for(ExcCode::AddrErrStore));
    }

    #[test]
    fn allowed_mask_excludes_syscall_and_interrupt() {
        let mask = FastExcState::allowed_mask();
        assert_eq!(mask & (1 << ExcCode::Syscall.code()), 0);
        assert_eq!(mask & (1 << ExcCode::Interrupt.code()), 0);
        assert_ne!(mask & (1 << ExcCode::TlbMod.code()), 0);
        assert_ne!(mask & (1 << ExcCode::Breakpoint.code()), 0);
        assert_ne!(mask & (1 << ExcCode::AddrErrStore.code()), 0);
    }
}
