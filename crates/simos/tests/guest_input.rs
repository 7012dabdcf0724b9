//! Guest-controlled sizes and addresses never panic the kernel and never
//! map kernel space: an `sbrk` that overflows the break answers `-ENOMEM`,
//! and a program whose segments wrap the address space or cross into KSEG0
//! is refused with a typed error.

use efex_simos::kernel::{Kernel, KernelConfig, KernelError, RunOutcome};
use efex_simos::syscall::errno;
use efex_simos::vm::MapError;

fn boot() -> Kernel {
    Kernel::boot(KernelConfig::default()).expect("boot")
}

/// No page-table entry at or above KSEG0 (VPN 0x80000).
fn user_only(k: &Kernel) -> bool {
    k.process().space().iter().all(|(&vpn, _)| vpn < 0x80000)
}

#[test]
fn sbrk_past_the_address_space_is_enomem() {
    let mut k = boot();
    let prog = k
        .load_user_program(
            r#"
.org 0x00400000
main:
    li   $a0, 0xffffffff
    li   $v0, 13              # sbrk
    syscall
    move $a0, $v0
    li   $v0, 2               # exit
    syscall
    nop
"#,
        )
        .expect("load");
    let brk = k.process().brk;
    let sp = k.setup_stack(1).expect("stack");
    k.exec(prog.entry(), sp);
    assert_eq!(
        k.run_user(1_000).expect("run"),
        RunOutcome::Exited(-errno::ENOMEM)
    );
    assert_eq!(k.process().brk, brk, "a refused sbrk leaves the break");
    assert!(user_only(&k));
}

#[test]
fn program_wrapping_the_address_space_is_refused() {
    let mut k = boot();
    let err = k
        .load_user_program(".org 0xfffff000\n    nop\n    nop\n")
        .expect_err("a segment past 0xffffffff cannot load");
    assert!(
        matches!(err, KernelError::Map(MapError::OutsideUserSpace(_))),
        "{err:?}"
    );
    assert!(user_only(&k));
}

#[test]
fn program_crossing_into_kseg0_is_refused() {
    let mut k = boot();
    let err = k
        .load_user_program(".org 0x7ffffffc\n    nop\n    nop\n")
        .expect_err("the second word lands in KSEG0");
    assert!(
        matches!(
            err,
            KernelError::Map(MapError::OutsideUserSpace(0x8000_0000))
        ),
        "{err:?}"
    );
    assert!(user_only(&k), "no user PTE for a KSEG0 page");
}
