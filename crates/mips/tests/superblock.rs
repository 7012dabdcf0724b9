//! Superblock-engine bit-exactness tests.
//!
//! The superblock engine must be architecturally invisible: every test runs
//! the same program under the interpreter and the superblock engine and
//! requires bit-identical registers, cycle counts, retired instructions,
//! and exception behaviour — with particular attention to self-modifying
//! code, where pre-decoded block contents could go stale: a patch in
//! straight-line code (including mid-block, by the block's own store), a
//! store over an already-run subroutine, a host write to text, a patch in
//! a branch delay slot, and a patch of the instruction an exception
//! handler returns to — and to TLB churn under live blocks (guest and
//! host remaps, ASID switches, protection changes), where a block may be
//! retagged only while its start address still translates to the page it
//! was decoded from.

use efex_mips::asm::assemble;
use efex_mips::cp0::status;
use efex_mips::encode::encode;
use efex_mips::exception::ExcCode;
use efex_mips::isa::{Instruction, Reg};
use efex_mips::machine::{
    kseg_to_phys, ExecEngine, Machine, MachineConfig, StopReason, GENERAL_VECTOR,
};
use efex_mips::tlb::TlbEntry;
use proptest::prelude::*;

/// A superblock machine and its interpreter reference, built identically.
fn pair() -> (Machine, Machine) {
    let sb = Machine::with_config(
        1 << 20,
        MachineConfig::default().engine(ExecEngine::Superblock),
    );
    let interp = Machine::with_config(
        1 << 20,
        MachineConfig::default().engine(ExecEngine::Interpreter),
    );
    assert_eq!(sb.engine(), ExecEngine::Superblock);
    assert_eq!(interp.engine(), ExecEngine::Interpreter);
    (sb, interp)
}

fn assert_same_state(a: &Machine, b: &Machine, what: &str) {
    assert_eq!(a.cpu().pc, b.cpu().pc, "pc diverged: {what}");
    assert_eq!(a.cpu().regs(), b.cpu().regs(), "registers diverged: {what}");
    assert_eq!(a.cycles(), b.cycles(), "cycle counts diverged: {what}");
    assert_eq!(
        a.instructions_retired(),
        b.instructions_retired(),
        "instret diverged: {what}"
    );
    assert_eq!(
        a.exceptions_taken(),
        b.exceptions_taken(),
        "exception counts diverged: {what}"
    );
    assert_eq!(a.cp0().status, b.cp0().status, "status diverged: {what}");
    assert_eq!(a.cp0().cause, b.cp0().cause, "cause diverged: {what}");
    assert_eq!(a.cp0().epc, b.cp0().epc, "epc diverged: {what}");
    assert_eq!(
        a.cp0().bad_vaddr,
        b.cp0().bad_vaddr,
        "bad_vaddr diverged: {what}"
    );
}

fn write_words(m: &mut Machine, paddr: u32, words: &[u32]) {
    for (i, w) in words.iter().enumerate() {
        m.mem_mut().write_u32(paddr + 4 * i as u32, *w).unwrap();
    }
}

fn both(machines: &mut (Machine, Machine), f: impl Fn(&mut Machine)) {
    f(&mut machines.0);
    f(&mut machines.1);
}

fn addiu(rt: Reg, rs: Reg, imm: i16) -> u32 {
    encode(Instruction::Addiu { rt, rs, imm })
}

fn li(rt: Reg, imm: i16) -> u32 {
    addiu(rt, Reg::ZERO, imm)
}

/// Load a full 32-bit constant into `rt` (two words: lui + ori).
fn li32(rt: Reg, value: u32) -> [u32; 2] {
    [
        encode(Instruction::Lui {
            rt,
            imm: (value >> 16) as u16,
        }),
        encode(Instruction::Ori {
            rt,
            rs: rt,
            imm: (value & 0xffff) as u16,
        }),
    ]
}

/// A store *inside* a straight-line run patching a *later* instruction of
/// the same run: the superblock has already pre-decoded the whole block, so
/// this is the mid-block staleness hazard. The patched word must take
/// effect on the very next fetch — the first execution must already see it.
#[test]
fn mid_block_store_patches_downstream_instruction() {
    let base = 0x8000_1000u32;
    // prog[5] is the patch target: the store at prog[4] overwrites it
    // before it is ever reached, all within one straight-line run.
    let target = base + 5 * 4;
    let [lui_t0, ori_t0] = li32(Reg::T0, target);
    let [lui_t2, ori_t2] = li32(Reg::T2, li(Reg::T3, 42));
    let prog = [
        lui_t0,
        ori_t0,
        lui_t2,
        ori_t2,
        encode(Instruction::Sw {
            rt: Reg::T2,
            base: Reg::T0,
            imm: 0,
        }),
        li(Reg::T3, 7), // patched to `li $t3, 42` by the store above
        encode(Instruction::Hcall { code: 1 }),
    ];
    let mut ms = pair();
    both(&mut ms, |m| {
        write_words(m, kseg_to_phys(base).unwrap(), &prog);
        m.set_pc(base);
        assert_eq!(m.run(100).unwrap(), StopReason::HostCall(1));
        assert_eq!(
            m.cpu().reg(Reg::T3),
            42,
            "the patch must be visible on the very next fetch"
        );
    });
    assert_same_state(&ms.0, &ms.1, "mid-block self-patch");
    let (_, _, invalidations) = ms.0.superblock_stats();
    assert!(
        invalidations > 0,
        "the superblock engine must have dropped the stale block"
    );
}

/// A patch landing in a branch delay slot: the delay slot op is pre-decoded
/// *into* the branch's block, so a stale block would replay the old slot.
#[test]
fn patch_in_delay_slot_is_seen_by_next_iteration() {
    let base = 0x8000_1000u32;
    let loop_top = base + 4 * 4;
    let delay_slot = loop_top + 2 * 4;
    let [lui_t0, ori_t0] = li32(Reg::T0, delay_slot);
    let [lui_t2, ori_t2] = li32(Reg::T2, li(Reg::T5, 40));
    let prog = [
        lui_t0,
        ori_t0,
        lui_t2,
        ori_t2,
        // loop_top: two iterations; $t4 counts down 1..0.
        addiu(Reg::T4, Reg::T4, 1),
        encode(Instruction::Beq {
            rs: Reg::T4,
            rt: Reg::T6,
            imm: 4, // to `hcall` when $t4 == $t6 (== 2)
        }),
        li(Reg::T5, 4), // delay slot — patched to `li $t5, 40` below
        encode(Instruction::Sw {
            rt: Reg::T2,
            base: Reg::T0,
            imm: 0,
        }),
        encode(Instruction::Beq {
            rs: Reg::ZERO,
            rt: Reg::ZERO,
            imm: -5, // back to loop_top
        }),
        Instruction::NOP.into_word(),
        encode(Instruction::Hcall { code: 1 }),
    ];
    let mut ms = pair();
    both(&mut ms, |m| {
        write_words(m, kseg_to_phys(base).unwrap(), &prog);
        m.cpu_mut().set_reg(Reg::T6, 2);
        m.set_pc(base);
        assert_eq!(m.run(100).unwrap(), StopReason::HostCall(1));
        assert_eq!(
            m.cpu().reg(Reg::T5),
            40,
            "the second iteration must execute the patched delay slot"
        );
    });
    assert_same_state(&ms.0, &ms.1, "delay-slot patch");
}

/// A store overwriting a subroutine that already ran twice (so its block
/// is cached and hot) must be visible to the next call.
#[test]
fn store_over_a_called_subroutine_is_refetched() {
    let base = 0x8000_1000u32;
    let target = 0x8000_1040u32;
    let call = encode(Instruction::Jal {
        target: target >> 2,
    });
    let [lui_t0, ori_t0] = li32(Reg::T0, target);
    let [lui_t2, ori_t2] = li32(Reg::T2, li(Reg::T3, 42));
    let prog = [
        lui_t0,
        ori_t0,
        lui_t2,
        ori_t2,
        call,
        Instruction::NOP.into_word(),
        call, // the second call re-enters the cached block
        Instruction::NOP.into_word(),
        encode(Instruction::Addu {
            rd: Reg::T6,
            rs: Reg::T3,
            rt: Reg::ZERO,
        }), // pre-patch result
        encode(Instruction::Sw {
            rt: Reg::T2,
            base: Reg::T0,
            imm: 0,
        }), // overwrite the subroutine's first instruction
        call,
        Instruction::NOP.into_word(),
        encode(Instruction::Addu {
            rd: Reg::T7,
            rs: Reg::T3,
            rt: Reg::ZERO,
        }), // post-patch result
        encode(Instruction::Hcall { code: 1 }),
    ];
    let sub = [
        li(Reg::T3, 7),
        encode(Instruction::Jr { rs: Reg::RA }),
        Instruction::NOP.into_word(),
    ];
    let mut ms = pair();
    both(&mut ms, |m| {
        write_words(m, kseg_to_phys(base).unwrap(), &prog);
        write_words(m, kseg_to_phys(target).unwrap(), &sub);
        m.set_pc(base);
        assert_eq!(m.run(1000).unwrap(), StopReason::HostCall(1));
        assert_eq!(m.cpu().reg(Reg::T6), 7, "the first calls see the old text");
        assert_eq!(m.cpu().reg(Reg::T7), 42, "the last call sees the new text");
    });
    assert_same_state(&ms.0, &ms.1, "store over a called subroutine");
    let (hits, _, _) = ms.0.superblock_stats();
    assert!(hits > 0, "the second call must reuse the cached block");
}

/// Host-side writes through `mem_mut()` (how kernels patch guest text)
/// must reach the next fetch, exactly like guest stores.
#[test]
fn host_write_to_text_is_refetched() {
    let mut ms = pair();
    both(&mut ms, |m| {
        write_words(
            m,
            0x1000,
            &[li(Reg::T3, 7), encode(Instruction::Hcall { code: 1 })],
        );
        m.set_pc(0x8000_1000);
        assert_eq!(m.run(10).unwrap(), StopReason::HostCall(1));
        assert_eq!(m.cpu().reg(Reg::T3), 7);
        // Patch the instruction from the host and rerun it.
        m.mem_mut().write_u32(0x1000, li(Reg::T3, 9)).unwrap();
        m.set_pc(0x8000_1000);
        assert_eq!(m.run(10).unwrap(), StopReason::HostCall(1));
        assert_eq!(m.cpu().reg(Reg::T3), 9, "the host patch must be fetched");
    });
    assert_same_state(&ms.0, &ms.1, "host text patch");
}

/// An exception handler patching the instruction it returns to (the classic
/// breakpoint-replacement idiom): the faulting block cached the old word,
/// and the `rfe`-return must fetch the new one.
#[test]
fn handler_patches_its_return_target() {
    let base = 0x8000_1000u32;
    let patch_target = base + 5 * 4; // the word right after `break`
    let [lui_k0, ori_k0] = li32(Reg::K0, patch_target);
    let [lui_k1, ori_k1] = li32(Reg::K1, li(Reg::T3, 42));
    // Handler: patch the return target, jump to it via EPC+4 (skipping the
    // `break`), using only $k0/$k1 per kernel convention.
    let handler = [
        lui_k0,
        ori_k0,
        lui_k1,
        ori_k1,
        encode(Instruction::Sw {
            rt: Reg::K1,
            base: Reg::K0,
            imm: 0,
        }),
        encode(Instruction::Mfc0 {
            rt: Reg::K0,
            rd: efex_mips::cp0::Cp0Reg::Epc as u8,
        }),
        addiu(Reg::K0, Reg::K0, 8), // skip break + run the patched word
        encode(Instruction::Jr { rs: Reg::K0 }),
        encode(Instruction::Rfe), // delay slot: restore pre-exception mode
    ];
    let prog = [
        li(Reg::T3, 1),
        addiu(Reg::T3, Reg::T3, 1), // warm the block containing the target
        encode(Instruction::Break { code: 0 }),
        Instruction::NOP.into_word(),
        li(Reg::T7, 5), // executed after the handler returns
        li(Reg::T3, 7), // patch target: becomes `li $t3, 42`
        encode(Instruction::Hcall { code: 1 }),
    ];
    let mut ms = pair();
    both(&mut ms, |m| {
        write_words(m, kseg_to_phys(GENERAL_VECTOR).unwrap(), &handler);
        write_words(m, kseg_to_phys(base).unwrap(), &prog);
        m.set_pc(base);
        assert_eq!(m.run(100).unwrap(), StopReason::HostCall(1));
        assert_eq!(m.cpu().reg(Reg::T7), 5, "post-return path executed");
        assert_eq!(
            m.cpu().reg(Reg::T3),
            42,
            "the handler's patch must be fetched after return"
        );
        assert_eq!(m.exceptions_taken(), 1);
    });
    assert_same_state(&ms.0, &ms.1, "handler return-target patch");
}

/// The superblock cache must actually engage on a hot loop (otherwise the
/// bit-exactness tests above prove nothing about the block path).
#[test]
fn hot_loop_hits_the_block_cache() {
    let base = 0x8000_1000u32;
    let prog = [
        addiu(Reg::T0, Reg::T0, 1),
        addiu(Reg::T1, Reg::T1, 2),
        encode(Instruction::Bne {
            rs: Reg::T0,
            rt: Reg::T2,
            imm: -3,
        }),
        Instruction::NOP.into_word(),
        encode(Instruction::Hcall { code: 1 }),
    ];
    let mut m = Machine::with_config(
        1 << 20,
        MachineConfig::default().engine(ExecEngine::Superblock),
    );
    write_words(&mut m, kseg_to_phys(base).unwrap(), &prog);
    m.cpu_mut().set_reg(Reg::T2, 100);
    m.set_pc(base);
    assert_eq!(m.run(10_000).unwrap(), StopReason::HostCall(1));
    assert_eq!(m.cpu().reg(Reg::T0), 100);
    let (hits, misses, _) = m.superblock_stats();
    assert!(hits > 90, "hot loop must re-enter cached blocks: {hits}");
    assert!(misses < 10, "steady state must not rebuild: {misses}");
}

/// A valid, writable TLB entry mapping `vpn` to `pfn` for `asid`.
fn mapping(vpn: u32, asid: u8, pfn: u32) -> TlbEntry {
    TlbEntry {
        vpn,
        asid,
        pfn,
        valid: true,
        dirty: true,
        global: false,
        user_modifiable: false,
    }
}

/// Two subroutines, one per physical frame, both run at the mapped virtual
/// address `0x0040_0000`: frame 4's returns 1 in `$v0` and adds 10 to
/// `$v1`, frame 5's returns 2 and adds 20. Frame 6 holds a third, shared
/// through a global mapping at `0x0040_1000`: it adds 100 to `$v1`.
const SUBROUTINES: &str = r#"
    .org 0x80004000
        addiu $v0, $zero, 1
        addiu $v1, $v1, 10
        jr    $ra
        nop
    .org 0x80005000
        addiu $v0, $zero, 2
        addiu $v1, $v1, 20
        jr    $ra
        nop
    .org 0x80006000
        addiu $v1, $v1, 100
        jr    $ra
        nop
"#;

/// Where the churn tests' kernel-mode driver code starts. Its blocks land
/// in superblock cache slots other than the subroutines' ones, so the
/// block a test calls into is still resident, and its tags are checked,
/// when the call after the TLB change reaches it.
const MAIN: u32 = 0x8000_1100;

/// Assembles `src` into both machines, installs `tlb` (slot, entry) pairs,
/// applies `setup`, runs from `entry` to `hcall 1`, checks that the two
/// engines agree on every architectural counter, and returns the
/// superblock machine.
fn run_churn(
    src: &str,
    entry: u32,
    tlb: &[(usize, TlbEntry)],
    setup: impl Fn(&mut Machine),
) -> Machine {
    run_churn_with_host(src, entry, tlb, setup, |_| {})
}

/// [`run_churn`], with `host` applied (as a kernel would) at every
/// `hcall 2` on the way.
fn run_churn_with_host(
    src: &str,
    entry: u32,
    tlb: &[(usize, TlbEntry)],
    setup: impl Fn(&mut Machine),
    host: impl Fn(&mut Machine),
) -> Machine {
    let prog = assemble(src).unwrap();
    let mut ms = pair();
    both(&mut ms, |m| {
        m.load_image(&prog).unwrap();
        for &(slot, entry) in tlb {
            m.tlb_mut().write(slot, entry);
        }
        setup(m);
        m.set_pc(entry);
        let mut stop = m.run(100_000).unwrap();
        while stop == StopReason::HostCall(2) {
            host(m);
            stop = m.run(100_000).unwrap();
        }
        assert_eq!(stop, StopReason::HostCall(1));
    });
    assert_same_state(&ms.0, &ms.1, "TLB churn");
    assert_eq!(
        ms.0.tlb().generation(),
        ms.1.tlb().generation(),
        "TLB generations diverged"
    );
    ms.0
}

/// (a) A text page is remapped to a new frame under a live block — by the
/// guest's `tlbwi`, or by the kernel writing the TLB from the host (its
/// shootdown path): the block's start address now translates elsewhere,
/// so it must be rebuilt from the new frame rather than retagged.
#[test]
fn remapped_text_page_is_refetched() {
    const GUEST_TLBWI: &str = r#"
        li    $t0, 0x00400000       # vpn 0x400, asid 0
        mtc0  $t0, $entryhi
        li    $t1, 0x5600           # pfn 5 | D | V
        mtc0  $t1, $entrylo
        li    $t2, 0x0100           # slot 1
        mtc0  $t2, $index
        tlbwi"#;
    const HOST_WRITE: &str = r#"
        hcall 2                     # the host maps vpn 0x400 to pfn 5"#;
    for remap in [GUEST_TLBWI, HOST_WRITE] {
        let src = format!(
            r#"{SUBROUTINES}
    .org 0x80001100
        li    $t9, 0x00400000
        jalr  $t9
        nop
        addu  $s0, $v0, $zero
        jalr  $t9
        nop
        addu  $s1, $v0, $zero{remap}
        jalr  $t9
        nop
        addu  $s2, $v0, $zero
        hcall 1
"#
        );
        let sb = run_churn_with_host(
            &src,
            MAIN,
            &[(1, mapping(0x400, 0, 4))],
            |_| {},
            |m| m.tlb_mut().write(1, mapping(0x400, 0, 5)),
        );
        assert_eq!(
            [Reg::S0, Reg::S1, Reg::S2].map(|r| sb.cpu().reg(r)),
            [1, 1, 2],
            "the call after the remap must run the new frame's text:{remap}"
        );
        assert_eq!(sb.cpu().reg(Reg::V1), 40);
        let (hits, _, _) = sb.superblock_stats();
        assert!(hits > 0, "the second call must reuse the cached block");
    }
}

/// (b) An ASID switch maps the same virtual address to different text
/// (rebuild each time), while a global page keeps its block across the
/// switches (retag).
#[test]
fn asid_switch_selects_each_spaces_text() {
    let src = format!(
        r#"{SUBROUTINES}
    .org 0x80001100
        li    $t9, 0x00400000
        li    $t8, 0x00401000
        li    $t0, 0x40             # asid 1
        mtc0  $t0, $entryhi
        jalr  $t9
        nop
        addu  $s0, $v0, $zero
        jalr  $t8
        nop
        li    $t0, 0x80             # asid 2
        mtc0  $t0, $entryhi
        jalr  $t9
        nop
        addu  $s1, $v0, $zero
        jalr  $t8
        nop
        li    $t0, 0x40             # asid 1 again
        mtc0  $t0, $entryhi
        jalr  $t9
        nop
        addu  $s2, $v0, $zero
        jalr  $t8
        nop
        hcall 1
"#
    );
    let shared = TlbEntry {
        global: true,
        ..mapping(0x401, 0, 6)
    };
    let sb = run_churn(
        &src,
        MAIN,
        &[
            (1, mapping(0x400, 1, 4)),
            (2, mapping(0x400, 2, 5)),
            (3, shared),
        ],
        |_| {},
    );
    assert_eq!(
        [Reg::S0, Reg::S1, Reg::S2].map(|r| sb.cpu().reg(r)),
        [1, 2, 1],
        "each address space must run its own text"
    );
    assert_eq!(sb.cpu().reg(Reg::V1), 10 + 20 + 10 + 3 * 100);
}

/// (c) `utlbp` protect-all on the text page under a live block: the next
/// fetch must raise the TLB-invalid fault exactly where the interpreter
/// does; the handler re-enables the page and retries the fetch. The same
/// holds when user code protects the very page it is executing from.
#[test]
fn protect_all_on_text_page_faults_the_next_fetch() {
    let src = format!(
        r#"{SUBROUTINES}
    .org 0x80000080
        li    $k0, 0x00400000
        utlbp $k0, re
        addiu $s7, $s7, 1
        mfc0  $k0, $epc
        jr    $k0
        rfe
    .org 0x80001100
        li    $t9, 0x00400000
        jalr  $t9
        nop
        addu  $s0, $v0, $zero
        li    $a0, 0x00400000
        utlbp $a0, pa
        jalr  $t9
        nop
        addu  $s1, $v0, $zero
        hcall 1
"#
    );
    let text = TlbEntry {
        user_modifiable: true,
        ..mapping(0x400, 0, 4)
    };
    let sb = run_churn(&src, MAIN, &[(1, text)], |_| {});
    assert_eq!(sb.exceptions_taken(), 1, "the protected fetch must fault");
    assert_eq!(sb.cpu().reg(Reg::S7), 1, "the handler ran once");
    assert_eq!(sb.cp0().epc, 0x0040_0000, "the fault is on the fetch");
    assert_eq!(
        [Reg::S0, Reg::S1].map(|r| sb.cpu().reg(r)),
        [1, 1],
        "the retried call runs the same text"
    );

    let own_page = assemble(
        r#"
    .org 0x80004000                 # runs mapped at 0x00400000
        lui   $a0, 0x0040
        utlbp $a0, pa
        addiu $t3, $zero, 9         # never runs: its fetch faults
"#,
    )
    .unwrap();
    let mut ms = pair();
    both(&mut ms, |m| {
        m.load_image(&own_page).unwrap();
        m.tlb_mut().write(1, text);
        m.cp0_mut().status = status::KUC;
        m.set_pc(0x0040_0000);
        m.run(3).unwrap();
        assert_eq!(m.cp0().exc_code(), Some(ExcCode::TlbLoad));
        assert_eq!(m.cp0().epc, 0x0040_0008, "the fault is on the fetch");
        assert_eq!(m.cpu().reg(Reg::T3), 0, "the protected word never runs");
    });
    assert_same_state(&ms.0, &ms.1, "user code protecting its own page");
}

/// Runs a user-mode loop of `trips` iterations that toggles `utlbp`
/// write protection on a *data* page twice per iteration, and returns the
/// superblock machine after checking it against the interpreter.
fn data_page_toggle_loop(trips: u32) -> Machine {
    let src = r#"
    .org 0x80000080
        hcall 1
    .org 0x80004000                 # runs mapped at 0x00400000
    top:
        lw    $t0, 0($a0)
        addiu $t1, $t1, -1
        beq   $zero, $zero, next
        utlbp $a0, wp               # delay slot: write-protect the data
    next:
        lw    $t2, 4($a0)
        addu  $t3, $t3, $t0
        bne   $t1, $zero, top
        utlbp $a0, we               # delay slot: write-enable it again
        sw    $t3, 8($a0)
        break 0
"#;
    let text = TlbEntry {
        dirty: false,
        ..mapping(0x400, 0, 4)
    };
    let data = TlbEntry {
        user_modifiable: true,
        ..mapping(0x500, 0, 7)
    };
    let sb = run_churn(src, 0x0040_0000, &[(1, text), (2, data)], |m| {
        m.mem_mut().write_u32(0x7000, 3).unwrap();
        m.cpu_mut().set_reg(Reg::A0, 0x0050_0000);
        m.cpu_mut().set_reg(Reg::T1, trips);
        m.cp0_mut().status = status::KUC;
        m.set_asid(0);
    });
    assert_eq!(sb.mem().read_u32(0x7008).unwrap(), 3 * trips);
    sb
}

/// (d) Protection toggles on a data page bump the TLB generation on every
/// iteration, but the loop's text still translates to the same page, so
/// its blocks are retagged rather than rebuilt: after warm-up the miss
/// count no longer grows with the trip count.
#[test]
fn data_page_protection_toggles_keep_blocks() {
    let short = data_page_toggle_loop(4);
    let long = data_page_toggle_loop(400);
    let (short_hits, short_misses, _) = short.superblock_stats();
    let (long_hits, long_misses, _) = long.superblock_stats();
    assert_eq!(
        long_misses, short_misses,
        "toggling a data page's protection must not rebuild text blocks"
    );
    assert_eq!(
        long_hits - short_hits,
        2 * (400 - 4),
        "every extra iteration re-enters both of its blocks"
    );
}

/// A breakpoint round trip between the user block at `0x0040_0098` and the
/// kernel return block at `0x8000_00b8`, `trips` times, then an exit
/// through a user TLB miss. Both blocks hash to superblock set 0x2e, as in
/// the fast-user breakpoint row. Returns the superblock machine after
/// checking it against the interpreter.
fn same_set_round_trips(trips: u32) -> Machine {
    let src = r#"
    .org 0x80000000                 # UTLB miss vector: the exit
        hcall 1
    .org 0x80000080                 # general vector
        j     ret
        nop
    .org 0x800000b8
    ret:
        mfc0  $k0, $epc
        addiu $k0, $k0, 4
        jr    $k0
        rfe
    .org 0x80004094                 # runs mapped at 0x00400094
    trap:
        break 0
        addiu $t1, $t1, -1          # 0x00400098: entered after each return
        bne   $t1, $zero, trap
        nop
        lw    $t0, 0($zero)         # unmapped: exit
"#;
    let text = TlbEntry {
        dirty: false,
        ..mapping(0x400, 0, 4)
    };
    let sb = run_churn(src, 0x0040_0094, &[(1, text)], |m| {
        m.cpu_mut().set_reg(Reg::T1, trips);
        m.cp0_mut().status = status::KUC;
        m.set_asid(0);
    });
    assert_eq!(sb.exceptions_taken(), u64::from(trips) + 1);
    sb
}

/// Two hot blocks whose start addresses share a superblock set both stay
/// resident: past warm-up, more round trips hit and never rebuild.
#[test]
fn blocks_sharing_a_set_both_stay_resident() {
    let short = same_set_round_trips(4);
    let long = same_set_round_trips(400);
    let (short_hits, short_misses, _) = short.superblock_stats();
    let (long_hits, long_misses, _) = long.superblock_stats();
    assert_eq!(
        long_misses, short_misses,
        "alternating blocks of one set must not evict each other"
    );
    assert!(
        long_hits - short_hits >= 2 * (400 - 4),
        "every extra round trip re-enters both blocks"
    );
}

proptest! {
    /// Arbitrary word soups (valid and reserved encodings, branches into
    /// zeroed memory, stores over their own text, CP0 writes) execute
    /// bit-identically under both engines — resuming across arbitrary
    /// step-budget boundaries, so blocks get interrupted mid-run and
    /// re-entered, with single [`Machine::step`]s (a chunk of 0) mixed in
    /// between block runs.
    #[test]
    fn engines_stay_in_lockstep_across_budget_boundaries(
        words in proptest::collection::vec(any::<u32>(), 1..128),
        chunks in proptest::collection::vec(0u64..9, 1..64),
    ) {
        let mut ms = pair();
        both(&mut ms, |m| {
            write_words(m, 0x1000, &words);
            m.set_pc(0x8000_1000);
        });
        let advance = |m: &mut Machine, chunk: u64| match chunk {
            0 => m.step().unwrap().unwrap_or(StopReason::StepLimit),
            n => m.run(n).unwrap(),
        };
        for (i, &chunk) in chunks.iter().enumerate() {
            let a = advance(&mut ms.0, chunk);
            let b = advance(&mut ms.1, chunk);
            prop_assert_eq!(a, b, "stop reasons diverged at chunk {}", i);
            prop_assert_eq!(ms.0.cpu().pc, ms.1.cpu().pc);
            prop_assert_eq!(ms.0.cycles(), ms.1.cycles());
            prop_assert_eq!(ms.0.instructions_retired(), ms.1.instructions_retired());
            prop_assert_eq!(ms.0.exceptions_taken(), ms.1.exceptions_taken());
            prop_assert_eq!(ms.0.cpu().regs(), ms.1.cpu().regs());
        }
        assert_same_state(&ms.0, &ms.1, "word-soup final state");
    }
}
