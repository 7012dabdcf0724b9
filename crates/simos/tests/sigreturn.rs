//! Guest-level tests of `sigreturn`: the interrupted code resumes with the
//! state the sigcontext holds, multiply/divide registers included.

use efex_simos::kernel::{Kernel, KernelConfig, RunOutcome};
use efex_simos::signals::{sigcontext, SIGCONTEXT_WORDS};

fn boot(program: &str) -> Kernel {
    let mut k = Kernel::boot(KernelConfig::default()).unwrap();
    let prog = k.load_user_program(program).unwrap();
    let sp = k.setup_stack(8).unwrap();
    k.exec(prog.entry(), sp);
    k
}

/// A handler that runs `mult` and `div` must not change the HI and LO the
/// interrupted code reads back after `sigreturn`.
#[test]
fn sigreturn_restores_hi_and_lo() {
    let mut k = boot(
        r#"
        .org 0x00400000
        main:
            la  $a1, handler
            li  $a0, 5           # SIGTRAP
            li  $v0, 4           # sigaction
            syscall
            li  $t0, 0x1234
            mthi $t0
            li  $t0, 0x5678
            mtlo $t0
            break 0              # the handler clobbers HI and LO
            mfhi $t1
            mflo $t2
            li  $t3, 0x1234
            bne $t1, $t3, bad
            li  $t3, 0x5678
            bne $t2, $t3, bad
            nop
            li  $a0, 0
            li  $v0, 2           # exit(0)
            syscall
            nop
        bad:
            li  $a0, 1
            li  $v0, 2           # exit(1)
            syscall
            nop
        handler:
            li  $t4, 7
            li  $t5, 9
            mult $t4, $t5        # HI = 0, LO = 63
            div  $t5, $t4        # HI = 2, LO = 1
            lw  $t4, 136($a2)    # sigcontext PC
            addiu $t4, $t4, 4    # skip the break
            sw  $t4, 136($a2)
            jr  $ra
            nop
    "#,
    );
    assert_eq!(k.run_user(100_000).unwrap(), RunOutcome::Exited(0));
    assert_eq!(k.process().stats.signals_delivered, 1);
    assert_eq!(
        (k.machine().cpu().hi(), k.machine().cpu().lo()),
        (0x1234, 0x5678)
    );
}

/// The restore reads the GPRs, HI, LO and PC that the handler may have
/// edited in the sigcontext, in frame order.
#[test]
fn sigreturn_takes_hi_and_lo_from_the_sigcontext() {
    assert_eq!(sigcontext::HI, 32 * 4);
    assert_eq!(sigcontext::LO, 33 * 4);
    assert_eq!(sigcontext::PC, 34 * 4);
    assert_eq!(SIGCONTEXT_WORDS, 37);
    let mut k = boot(
        r#"
        .org 0x00400000
        main:
            la  $a1, handler
            li  $a0, 5           # SIGTRAP
            li  $v0, 4           # sigaction
            syscall
            break 0
            mfhi $a0             # 40 from the edited sigcontext
            mflo $t0             # 2
            addu $a0, $a0, $t0
            li  $v0, 2           # exit(HI + LO)
            syscall
            nop
        handler:
            li  $t4, 40
            sw  $t4, 128($a2)    # sigcontext HI
            li  $t4, 2
            sw  $t4, 132($a2)    # sigcontext LO
            lw  $t4, 136($a2)
            addiu $t4, $t4, 4
            sw  $t4, 136($a2)
            jr  $ra
            nop
    "#,
    );
    assert_eq!(k.run_user(100_000).unwrap(), RunOutcome::Exited(42));
}
