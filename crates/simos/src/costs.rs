//! Cycle-cost calibration for the host-modeled kernel services.
//!
//! The guest-assembly parts of the kernel (the fast-path handler, the
//! trampoline, user handlers) are *executed* and cost what their
//! instructions cost. The parts of the conventional Ultrix kernel we model
//! functionally at host level charge the constants below, expressed in
//! 25 MHz cycles (1 cycle = 0.04 µs). No constant stands in for guest
//! code: a TLB miss the refill handler cannot satisfy is re-raised at the
//! general vector, so that route pays for the guest phases it executes
//! plus one machine exception entry.
//!
//! ## Calibration anchors (all from the paper)
//!
//! | anchor | paper | constant(s) |
//! |---|---|---|
//! | Ultrix null syscall | 12 µs (300 cy) | [`ULTRIX_SYSCALL_WRAPPER`] |
//! | Ultrix simple-exception round trip | ~80 µs (2000 cy) | sum of the `ULTRIX_*` phases + executed guest code |
//! | Ultrix write-protect delivery | ~60 µs (1500 cy) | adds [`ULTRIX_VM_FAULT_WORK`] to the simple-exception phases |
//! | Ultrix `mprotect` | — | [`ULTRIX_SYSCALL_WRAPPER`] + [`ULTRIX_MPROTECT_PER_PAGE`] per page |
//! | fast-path write-protect delivery | 15 µs (375 cy) | [`FAST_TLBFAULT_KERNEL`] on top of the executed fast path |
//! | fast-path subpage delivery | 19 µs (475 cy) | adds [`SUBPAGE_LOOKUP`] |
//! | fault + re-enable with eager amplification | 18 µs | [`FAST_PROTECT_SYSCALL`] |
//! | kernel instruction-emulation (unprotected subpage; the unaligned fixup pays 1.5×) | — | [`SUBPAGE_EMULATE`], plus [`SUBPAGE_EMULATE_BRANCH`] in a delay slot |
//! | TLB refill from the page table | — | [`TLB_REFILL`] |
//! | page-in from the simulated disk | — | [`PAGE_IN`] |

/// Ultrix low-level exception entry: initialize the kernel stack and save
/// all user registers (some twice, as the paper notes), re-enable
/// exceptions, call the C handler.
pub const ULTRIX_EXC_SAVE: u64 = 350;

/// Posting phase: translate the hardware code into a Unix signal and post
/// it to the process (procfs locking, signal masks…).
pub const ULTRIX_POST: u64 = 300;

/// Recognition + delivery phase: locate the handler, build the sigcontext
/// on the user stack, rewrite the saved exception state to enter the
/// trampoline.
pub const ULTRIX_DELIVER: u64 = 550;

/// `sigreturn`: re-enter the kernel, validate and restore the sigcontext,
/// return to the faulting instruction.
pub const ULTRIX_SIGRETURN: u64 = 700;

/// Extra kernel work when the Ultrix-path exception is a VM fault (reading
/// page tables, checking shared memory, `mprotect` bookkeeping).
pub const ULTRIX_VM_FAULT_WORK: u64 = 450;

/// The general-purpose Ultrix system call wrapper (entry + exit), the
/// 12 µs null-syscall anchor.
pub const ULTRIX_SYSCALL_WRAPPER: u64 = 300;

/// Ultrix `mprotect`: wrapper plus per-page page-table and TLB work.
pub const ULTRIX_MPROTECT_PER_PAGE: u64 = 60;

/// Fast path: extra kernel work for TLB-related exceptions — the C-language
/// routine that reads per-process page tables and validates the fault
/// (Section 3.2.2 explains why these cost 15 µs rather than 5 µs).
pub const FAST_TLBFAULT_KERNEL: u64 = 230;

/// Fast path: the lean protection-change system call used to re-enable
/// protection after an eager-amplified fault (3 µs; the 18 µs
/// fault-plus-re-enable anchor minus the 15 µs fault).
pub const FAST_PROTECT_SYSCALL: u64 = 75;

/// Subpage engine: bitmap lookup to classify the faulting subpage
/// (the 19 µs vs 15 µs delta in Table 2).
pub const SUBPAGE_LOOKUP: u64 = 100;

/// Subpage engine: emulate one faulting load/store with kernel rights
/// (decode + access + writeback), excluding branch emulation.
pub const SUBPAGE_EMULATE: u64 = 80;

/// Subpage engine: additional branch emulation when the access sits in a
/// branch delay slot.
pub const SUBPAGE_EMULATE_BRANCH: u64 = 30;

/// TLB refill from the page table (the R3000's ~9-instruction UTLB
/// handler).
pub const TLB_REFILL: u64 = 12;

/// Page-in from the simulated disk, charged each time the kernel makes a
/// non-resident page resident. A 1994 disk's ~8 ms would be 200k cycles at
/// 25 MHz; this 1 ms keeps paging tests quick and still dwarfs every
/// delivery cost.
pub const PAGE_IN: u64 = 25_000;

#[cfg(test)]
mod tests {
    use efex_mips::cycles::to_micros;

    #[test]
    fn ultrix_round_trip_anchor_is_near_80us() {
        // Host-charged phases; executed guest code (trampoline + handler
        // call) adds roughly 100 cycles on top.
        let charged = super::ULTRIX_EXC_SAVE
            + super::ULTRIX_POST
            + super::ULTRIX_DELIVER
            + super::ULTRIX_SIGRETURN;
        let us = to_micros(charged + 100);
        assert!((70.0..=90.0).contains(&us), "got {us}");
    }

    #[test]
    fn fast_protect_syscall_matches_eager_amplification_anchor() {
        // 15 us fault + 3 us re-enable = paper's 18 us.
        let us = to_micros(super::FAST_PROTECT_SYSCALL);
        assert!((2.0..=4.0).contains(&us));
    }
}
