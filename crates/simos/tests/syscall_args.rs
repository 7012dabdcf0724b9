//! Every system call, fed hostile arguments, answers with a result or a
//! typed error: the kernel never unwinds and never maps kernel space.
//!
//! Each case draws `$a0`–`$a2` with a bias toward the values that break
//! address arithmetic (0 and 1, page edges, the top of user space, and
//! `u32::MAX`) and runs a tiny guest once per `syscall::nr` number plus one
//! unknown number: it issues the call and exits with `$v0`. Run it in a
//! debug build, where integer overflow panics.

use std::panic::{catch_unwind, AssertUnwindSafe};

use efex_simos::kernel::{Kernel, KernelConfig};
use efex_simos::syscall::nr;
use proptest::prelude::*;

/// Every system call number, then one no call answers to.
const NUMBERS: [u32; 14] = [
    nr::GETPID,
    nr::EXIT,
    nr::WRITE,
    nr::SIGACTION,
    nr::SIGRETURN,
    nr::MPROTECT,
    nr::UEXC_ENABLE,
    nr::UEXC_DISABLE,
    nr::UEXC_PROTECT,
    nr::UEXC_SETEAGER,
    nr::SUBPAGE_PROTECT,
    nr::TLB_GRANT,
    nr::SBRK,
    99,
];

/// Steps for one guest: the call, the exit, and room for a `sigreturn` to
/// wander.
const STEPS: u64 = 2_000;

/// First virtual page number of KSEG0.
const KSEG0_VPN: u32 = 0x8_0000;

fn arg() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just(1u32),
        // A page boundary or one byte either side of it.
        (0u32..0x10_0000, 0u32..3)
            .prop_map(|(page, d)| (page << 12).wrapping_add(d).wrapping_sub(1)),
        0x7fff_f000u32..0x8000_0001,
        Just(u32::MAX),
        any::<u32>(),
    ]
}

/// Boots a kernel, runs the guest for `num` with `args`, and returns the
/// run's result and the page table's KSEG0 VPNs.
fn run_call(num: u32, [a0, a1, a2]: [u32; 3]) -> (String, Vec<u32>) {
    let source = format!(
        r#"
.org 0x00400000
main:
    li   $a0, {a0:#x}
    li   $a1, {a1:#x}
    li   $a2, {a2:#x}
    li   $v0, {num}
    syscall
    move $a0, $v0
    li   $v0, 2               # exit
    syscall
    nop
"#
    );
    let mut k = Kernel::boot(KernelConfig::default()).expect("boot");
    let prog = k.load_user_program(&source).expect("load");
    let sp = k.setup_stack(4).expect("stack");
    k.exec(prog.entry(), sp);
    let result = format!("{:?}", k.run_user(STEPS));
    let kernel_vpns = k
        .process()
        .space()
        .iter()
        .map(|(&vpn, _)| vpn)
        .filter(|&vpn| vpn >= KSEG0_VPN)
        .collect();
    (result, kernel_vpns)
}

proptest! {
    #[test]
    fn syscalls_never_unwind_or_map_kernel_space(a0 in arg(), a1 in arg(), a2 in arg()) {
        for num in NUMBERS {
            let run = catch_unwind(AssertUnwindSafe(|| run_call(num, [a0, a1, a2])));
            let Ok((result, kernel_vpns)) = run else {
                return Err(TestCaseError::fail(format!(
                    "syscall {num} panicked the kernel"
                )));
            };
            prop_assert!(
                kernel_vpns.is_empty(),
                "syscall {num} ({result}) mapped KSEG0 pages {kernel_vpns:x?}"
            );
        }
    }
}
