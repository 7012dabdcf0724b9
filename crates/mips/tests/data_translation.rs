//! The superblock engine's data-translation cache must be invisible.
//!
//! Loads and stores inside blocks translate KUSEG addresses through a
//! small cache keyed by (virtual page, ASID) and tagged with the TLB's
//! generation counter. Every test here runs one program under the
//! superblock engine and under the interpreter (which never caches a
//! translation) and requires the same registers, counters and exceptions,
//! across each event that changes what a cached line may answer: a
//! checkpoint restore that sets the TLB generation back, a `utlbp`
//! write-protect between accesses to one page, an ASID switch, host edits
//! through `tlb_mut()`, and two pages sharing one cache line.

use efex_mips::asm::assemble;
use efex_mips::cp0::status;
use efex_mips::exception::ExcCode;
use efex_mips::isa::Reg;
use efex_mips::machine::{ExecEngine, Machine, MachineConfig, StopReason, GENERAL_VECTOR};
use efex_mips::tlb::TlbEntry;

/// Both engines, superblock first.
const ENGINES: [ExecEngine; 2] = [ExecEngine::Superblock, ExecEngine::Interpreter];

/// Where every test's data page is mapped.
const DATA: u32 = 0x0050_0000;

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

/// A machine on `engine` with `src` loaded, `tlb` (slot, entry) pairs
/// installed, the first words of frames 7 to 9 holding `0x1111 * pfn +
/// offset` (so a load names its frame and a misdirected store shows),
/// `$a0` pointing at [`DATA`], and the PC at `entry`.
fn machine(engine: ExecEngine, src: &str, tlb: &[(usize, TlbEntry)], entry: u32) -> Machine {
    let mut m = Machine::with_config(1 << 20, MachineConfig::default().engine(engine));
    m.load_image(&assemble(src).unwrap()).unwrap();
    for &(slot, e) in tlb {
        m.tlb_mut().write(slot, e);
    }
    for pfn in 7..10 {
        for off in (0..16).step_by(4) {
            m.mem_mut()
                .write_u32(pfn << 12 | off, 0x1111 * pfn + off)
                .unwrap();
        }
    }
    m.cpu_mut().set_reg(Reg::A0, DATA);
    m.set_pc(entry);
    m
}

/// Runs `m` to `hcall 1`, applying `host` at every `hcall 2` on the way.
fn run_to_exit(m: &mut Machine, host: &dyn Fn(&mut Machine)) {
    let mut stop = m.run(100_000).unwrap();
    while stop == StopReason::HostCall(2) {
        host(m);
        stop = m.run(100_000).unwrap();
    }
    assert_eq!(stop, StopReason::HostCall(1), "{:?}", m.engine());
}

/// Runs the program on both engines and checks that they agree on every
/// register, counter, CP0 exception register and data word; returns the
/// superblock machine.
fn run_both(
    src: &str,
    tlb: &[(usize, TlbEntry)],
    entry: u32,
    setup: impl Fn(&mut Machine),
    host: impl Fn(&mut Machine),
) -> Machine {
    let [sb, interp] = ENGINES.map(|engine| {
        let mut m = machine(engine, src, tlb, entry);
        setup(&mut m);
        run_to_exit(&mut m, &host);
        m
    });
    assert_same(&sb, &interp);
    sb
}

fn assert_same(sb: &Machine, interp: &Machine) {
    assert_eq!(
        sb.step_digest(),
        interp.step_digest(),
        "architectural state"
    );
    assert_eq!(sb.cpu().regs(), interp.cpu().regs());
    assert_eq!(sb.cp0().epc, interp.cp0().epc);
    assert_eq!(sb.cp0().exc_code(), interp.cp0().exc_code());
    for pfn in 7..10 {
        for off in (0..16).step_by(4) {
            let paddr = pfn << 12 | off;
            assert_eq!(
                sb.mem().read_u32(paddr).unwrap(),
                interp.mem().read_u32(paddr).unwrap(),
                "memory at {paddr:#x}"
            );
        }
    }
}

/// A kernel-mode program at `0x8000_1000` (kernel code reaches KUSEG data
/// through the TLB too), with the general exception vector exiting.
fn kernel_program(body: &str) -> String {
    format!(
        r#"
    .org 0x80000080
        hcall 1
    .org 0x80001000
{body}
        hcall 1
"#
    )
}

/// A restore sets the TLB generation back to a value the receiver has
/// already cached a line under, with the page mapped to another frame. The
/// line must not survive the restore.
#[test]
fn restore_to_a_cached_generation_retranslates() {
    let src = kernel_program(
        r#"
        lw    $t0, 0($a0)
        sw    $t0, 4($a0)
        hcall 2
        lw    $t1, 0($a0)
        sw    $t1, 8($a0)"#,
    );
    for engine in ENGINES {
        // The donor maps the data page to frame 8, the receiver to frame
        // 7: two TLB writes each, so both stop at the same generation.
        let tlb = |pfn| [(1, mapping(0x600, 0, 9)), (2, mapping(0x500, 0, pfn))];
        let mut donor = machine(engine, &src, &tlb(8), 0x8000_1000);
        assert_eq!(donor.run(100).unwrap(), StopReason::HostCall(2));
        let mut receiver = machine(engine, &src, &tlb(7), 0x8000_1000);
        assert_eq!(receiver.run(100).unwrap(), StopReason::HostCall(2));
        assert_eq!(receiver.tlb().generation(), donor.tlb().generation());
        assert_eq!(receiver.cpu().reg(Reg::T0), 0x7777);

        receiver.restore(&donor.snapshot()).unwrap();
        run_to_exit(&mut receiver, &|_| {});
        run_to_exit(&mut donor, &|_| {});
        assert_eq!(receiver.cpu().reg(Reg::T1), 0x8888, "{engine:?}");
        assert_eq!(receiver.mem().read_u32(0x8008).unwrap(), 0x8888);
        assert_eq!(receiver.mem().read_u32(0x7008).unwrap(), 0x777f);
        assert_eq!(receiver.step_digest(), donor.step_digest(), "{engine:?}");
    }
}

/// `utlbp` write-protects the data page after a store has made its line
/// writable and a load has read through it: the next store to the page
/// must raise `TlbMod` at that store.
#[test]
fn write_protect_between_load_and_store_raises_tlbmod() {
    let src = r#"
    .org 0x80000080
        hcall 1
    .org 0x80004000                 # runs mapped at 0x00400000
        lw    $t0, 0($a0)
        sw    $t0, 4($a0)
        utlbp $a0, wp
        lw    $t1, 8($a0)
        sw    $t1, 12($a0)          # 0x00400010: must fault
        addiu $t2, $zero, 1
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
    let sb = run_both(
        src,
        &[(1, text), (2, data)],
        0x0040_0000,
        |m| m.cp0_mut().status = status::KUC,
        |_| {},
    );
    assert_eq!(sb.cp0().exc_code(), Some(ExcCode::TlbMod));
    assert_eq!(sb.cp0().epc, 0x0040_0010);
    assert_eq!(sb.cp0().bad_vaddr, DATA + 12);
    assert_eq!(sb.cpu().reg(Reg::T2), 0, "the faulting store stops the run");
    assert_eq!(sb.mem().read_u32(0x700c).unwrap(), 0x7783);
}

/// Two address spaces map the data page to different frames. After each
/// ASID switch, loads and stores reach the current space's frame.
#[test]
fn asid_switch_selects_each_spaces_data() {
    let src = kernel_program(
        r#"
        lw    $t0, 0($a0)
        sw    $t0, 4($a0)
        li    $t9, 0x40             # asid 1
        mtc0  $t9, $entryhi
        lw    $t1, 0($a0)
        sw    $t1, 8($a0)
        mtc0  $zero, $entryhi       # asid 0 again
        lw    $t2, 0($a0)
        sw    $t2, 12($a0)
        hcall 2                     # the host switches to asid 1
        lw    $t3, 4($a0)"#,
    );
    let sb = run_both(
        &src,
        &[(1, mapping(0x500, 0, 7)), (2, mapping(0x500, 1, 8))],
        0x8000_1000,
        |_| {},
        |m| m.set_asid(1),
    );
    let regs = [Reg::T0, Reg::T1, Reg::T2, Reg::T3].map(|r| sb.cpu().reg(r));
    assert_eq!(regs, [0x7777, 0x8888, 0x7777, 0x888c]);
    assert_eq!(sb.mem().read_u32(0x8008).unwrap(), 0x8888);
    assert_eq!(sb.mem().read_u32(0x700c).unwrap(), 0x7777);
}

/// The host edits the TLB between two runs that touch the same page: a
/// remap to another frame must redirect loads and stores, and a
/// write-protect must fault the next store.
#[test]
fn host_tlb_edits_reach_cached_pages() {
    let src = kernel_program(
        r#"
        lw    $t0, 0($a0)
        sw    $t0, 4($a0)
        hcall 2
        lw    $t1, 0($a0)
        sw    $t1, 8($a0)
        addiu $t2, $zero, 1"#,
    );
    let remapped = run_both(
        &src,
        &[(2, mapping(0x500, 0, 7))],
        0x8000_1000,
        |_| {},
        |m| m.tlb_mut().write(2, mapping(0x500, 0, 8)),
    );
    assert_eq!(remapped.cpu().reg(Reg::T1), 0x8888);
    assert_eq!(remapped.mem().read_u32(0x8008).unwrap(), 0x8888);
    assert_eq!(remapped.mem().read_u32(0x7008).unwrap(), 0x777f);

    let protected = run_both(
        &src,
        &[(2, mapping(0x500, 0, 7))],
        0x8000_1000,
        |_| {},
        |m| {
            let entry = TlbEntry {
                dirty: false,
                ..mapping(0x500, 0, 7)
            };
            m.tlb_mut().write(2, entry);
        },
    );
    assert_eq!(protected.cp0().exc_code(), Some(ExcCode::TlbMod));
    assert_eq!(protected.cpu().pc, GENERAL_VECTOR + 4);
    assert_eq!(protected.cpu().reg(Reg::T2), 0);

    let unmapped = run_both(
        &src,
        &[(2, mapping(0x500, 0, 7))],
        0x8000_1000,
        |_| {},
        |m| m.tlb_mut().clear(2),
    );
    assert_eq!(unmapped.cp0().exc_code(), Some(ExcCode::TlbLoad));
    assert_eq!(unmapped.cp0().bad_vaddr, DATA);
}

/// Two pages whose virtual page numbers share a cache line, touched in
/// turn in a loop: each access reaches its own frame.
#[test]
fn pages_sharing_a_line_stay_apart() {
    let src = kernel_program(
        r#"
        li    $a1, 0x00540000       # vpn 0x540: the line of vpn 0x500
        li    $t9, 3
    top:
        lw    $t0, 0($a0)
        lw    $t1, 0($a1)
        sw    $t1, 4($a0)
        sw    $t0, 4($a1)
        addu  $s0, $s0, $t0
        addiu $t9, $t9, -1
        bne   $t9, $zero, top
        addu  $s1, $s1, $t1"#,
    );
    let sb = run_both(
        &src,
        &[(1, mapping(0x500, 0, 7)), (2, mapping(0x540, 0, 8))],
        0x8000_1000,
        |_| {},
        |_| {},
    );
    assert_eq!(sb.cpu().reg(Reg::S0), 3 * 0x7777);
    assert_eq!(sb.cpu().reg(Reg::S1), 3 * 0x8888);
    assert_eq!(sb.mem().read_u32(0x7004).unwrap(), 0x8888);
    assert_eq!(sb.mem().read_u32(0x8004).unwrap(), 0x7777);
}
