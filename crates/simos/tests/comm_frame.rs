//! The communication frame as a fast handler reads it, on every delivery
//! route.
//!
//! The guest `fexc_save` phase is the frame's only writer. It stores the
//! interrupted `$at`, `$a0` and `$a1` before the later phases clobber them,
//! and it copies EPC, Cause and BadVAddr from CP0. Each case below raises
//! one fault with known `$at`/`$a0`/`$a1`; the handler copies all seven
//! frame slots into `out` and resumes past the faulting instruction. A
//! route that rewrites the frame from the host after the guest phases ran
//! (write-protect and subpage faults reach the host through `hcall 2`,
//! after `fexc_tlbcheck` set `$a0` to 1) shows up as a wrong `$a0` slot.
//! The last case checks the Unix path's sigcontext against the frame's
//! BadVAddr for the same breakpoint.

use efex_mips::asm::Program;
use efex_mips::exception::ExcCode;
use efex_simos::kernel::{Kernel, KernelConfig, RunOutcome};
use efex_simos::layout;
use efex_simos::signals::sigcontext;

const AT: u32 = 0x7a7a;
const A0: u32 = 0x1234;
const A1: u32 = 0x5678;

/// `@MASK@`, `@SETUP@`, `@FAULT@` and `@FRAME@` are filled in per case.
/// `$s1` holds the page the case faults on; `main` records it in `page`.
const PROGRAM: &str = r#"
.org 0x00400000
main:
    li   $a0, @MASK@
    la   $a1, handler
    li   $a2, 0x7ffe0000
    li   $v0, 7               # uexc_enable
    syscall
    li   $a0, 4096
    li   $v0, 13              # sbrk
    syscall
    move $s1, $v0
    la   $t0, page
    sw   $s1, 0($t0)
    sw   $zero, 0($s1)        # resident and in the TLB
@SETUP@
    li   $a0, 0x1234
    li   $a1, 0x5678
    ori  $at, $zero, 0x7a7a
fault:
    @FAULT@
    li   $a0, 0
    li   $v0, 2               # exit
    syscall
    nop

handler:
    lui  $k0, 0x7ffe
    la   $t0, out
    lw   $t1, @FRAME@+0x00($k0)   # EPC
    sw   $t1, 0($t0)
    lw   $t1, @FRAME@+0x04($k0)   # Cause
    sw   $t1, 4($t0)
    lw   $t1, @FRAME@+0x08($k0)   # BadVAddr
    sw   $t1, 8($t0)
    lw   $t1, @FRAME@+0x0c($k0)   # $at
    sw   $t1, 12($t0)
    lw   $t1, @FRAME@+0x10($k0)   # $a0
    sw   $t1, 16($t0)
    lw   $t1, @FRAME@+0x14($k0)   # $a1
    sw   $t1, 20($t0)
    lw   $t1, @FRAME@+0x18($k0)   # ACTIVE
    sw   $t1, 24($t0)
    lw   $t1, @FRAME@+0x00($k0)
    addiu $t1, $t1, 4         # skip the faulting instruction
    jr   $t1
    nop

page: .word 0
out:  .word 0, 0, 0, 0, 0, 0, 0
"#;

struct Case {
    /// Exception class the fault is delivered as.
    code: ExcCode,
    /// Extra set-up after the page is resident.
    setup: &'static str,
    /// The faulting instruction.
    fault: &'static str,
}

fn load(case: &Case) -> (Kernel, Program) {
    let source = PROGRAM
        .replace("@MASK@", &(1u32 << case.code.code()).to_string())
        .replace("@SETUP@", case.setup)
        .replace("@FAULT@", case.fault)
        .replace(
            "@FRAME@",
            &(case.code.code() * layout::COMM_FRAME_SIZE).to_string(),
        );
    let mut k = Kernel::boot(KernelConfig::default()).expect("boot");
    let prog = k.load_user_program(&source).expect("assemble");
    let sp = k.setup_stack(4).expect("stack");
    k.exec(prog.entry(), sp);
    (k, prog)
}

fn word(k: &mut Kernel, prog: &Program, label: &str, index: u32) -> u32 {
    let addr = prog.symbol(label).expect("label") + 4 * index;
    k.host_load_u32(addr).expect("readable")
}

/// Runs the program to exit and checks the seven slots its handler read
/// against CP0 at exception entry, the interrupted scratch registers and
/// the active mark.
fn run_and_check(mut k: Kernel, prog: &Program, code: ExcCode) {
    assert_eq!(k.run_user(1_000_000).expect("run"), RunOutcome::Exited(0));
    let epc = prog.symbol("fault").expect("fault label");
    let page = word(&mut k, prog, "page", 0);
    let want = [epc, code.code() << 2, page, AT, A0, A1, 1];
    let names = ["EPC", "Cause", "BadVAddr", "AT", "A0", "A1", "ACTIVE"];
    for (i, (name, want)) in names.iter().zip(want).enumerate() {
        let got = word(&mut k, prog, "out", i as u32);
        assert_eq!(
            got, want,
            "{code:?} frame slot {name}: read {got:#x}, expected {want:#x}"
        );
    }
}

fn check(case: &Case) {
    let (k, prog) = load(case);
    run_and_check(k, &prog, case.code);
}

#[test]
fn write_protect_frame_holds_the_interrupted_registers() {
    // Reaches the host through `hcall 2` after the guest phases ran.
    check(&Case {
        code: ExcCode::TlbMod,
        setup: "
    move $a0, $s1
    li   $a1, 4096
    li   $a2, 1               # read-only
    li   $v0, 9               # uexc_protect
    syscall",
        fault: "sw $zero, 0($s1)",
    });
}

#[test]
fn protected_subpage_frame_holds_the_interrupted_registers() {
    // The subpage engine amplifies the page, then delivers through
    // `hcall 2`.
    check(&Case {
        code: ExcCode::TlbMod,
        setup: "
    move $a0, $s1
    li   $a1, 1024            # the first logical subpage
    li   $a2, 1
    li   $v0, 11              # subpage_protect
    syscall",
        fault: "sw $zero, 0($s1)",
    });
}

#[test]
fn refill_route_frame_holds_the_interrupted_registers() {
    // A load from a PROT_NONE page misses the TLB. The refill handler
    // cannot map it and re-raises it at the general vector.
    let case = Case {
        code: ExcCode::TlbLoad,
        setup: "
    move $a0, $s1
    li   $a1, 4096
    li   $a2, 0               # no access
    li   $v0, 6               # mprotect
    syscall",
        fault: "lw $t2, 0($s1)",
    };
    let (mut k, prog) = load(&case);
    // Step to the faulting load and prove it takes the refill route: the
    // page has no TLB entry, so the access enters at the UTLB vector.
    let fault = prog.symbol("fault").expect("fault label");
    let mut steps = 0;
    while k.machine().cpu().pc != fault {
        assert_eq!(k.run_user(1).expect("step"), RunOutcome::StepLimit);
        steps += 1;
        assert!(steps < 10_000, "never reached the fault");
    }
    let page = word(&mut k, &prog, "page", 0);
    let asid = k.process().space().asid();
    assert!(k.machine().tlb().probe(page, asid).is_none());
    run_and_check(k, &prog, case.code);
}

#[test]
fn breakpoint_frame_holds_the_interrupted_registers() {
    // The guest phases deliver a breakpoint without entering the host.
    // BadVAddr still holds the last address fault: the first touch of the
    // page, which the R3000 does not clear on a `break`.
    check(&Case {
        code: ExcCode::Breakpoint,
        setup: "",
        fault: "break 0",
    });
}

/// The Unix path's encoding of the same breakpoint: the sigcontext saves
/// BadVAddr as CP0 holds it, so the handler reads the page the fast
/// frame's BadVAddr slot reports in the case above, not 0.
#[test]
fn breakpoint_sigcontext_holds_the_bad_vaddr_the_frame_holds() {
    let source = r#"
.org 0x00400000
main:
    la   $a1, handler
    li   $a0, 5               # SIGTRAP
    li   $v0, 4               # sigaction
    syscall
    li   $a0, 4096
    li   $v0, 13              # sbrk
    syscall
    move $s1, $v0
    la   $t0, page
    sw   $s1, 0($t0)
    sw   $zero, 0($s1)        # the last address fault before the break
    break 0
    li   $a0, 0
    li   $v0, 2               # exit
    syscall
    nop

handler:
    lw   $t1, @BADVADDR@($a2)
    la   $t0, out
    sw   $t1, 0($t0)
    lw   $t4, @PC@($a2)
    addiu $t4, $t4, 4         # skip the break
    sw   $t4, @PC@($a2)
    jr   $ra
    nop

page: .word 0
out:  .word 0
"#
    .replace("@BADVADDR@", &sigcontext::BADVADDR.to_string())
    .replace("@PC@", &sigcontext::PC.to_string());
    let mut k = Kernel::boot(KernelConfig::default()).expect("boot");
    let prog = k.load_user_program(&source).expect("assemble");
    let sp = k.setup_stack(4).expect("stack");
    k.exec(prog.entry(), sp);
    assert_eq!(k.run_user(1_000_000).expect("run"), RunOutcome::Exited(0));
    assert_eq!(k.process().stats.signals_delivered, 1);
    let page = word(&mut k, &prog, "page", 0);
    assert_eq!(word(&mut k, &prog, "out", 0), page, "sigcontext BadVAddr");
}
