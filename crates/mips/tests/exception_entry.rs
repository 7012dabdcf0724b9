//! Exception entry and return conform to `efex_mips::sem::exception_entry`.
//!
//! Each case places one faulting instruction either in the delay slot of a
//! branch or jump (every kind) or outside one, after a few `nop`s, and runs
//! it on both engines, in user or kernel mode, from a random CP0 state:
//! random UXE/UXA/UXM and UXT, KU/IE stack, Random, EntryHi, Context and
//! the registers an entry overwrites. The faults are load and store address
//! errors (unaligned, or a user reference to kernel space), KUSEG TLB
//! refills, invalid entries and modifications, overflow, `break` and
//! `syscall`. The budget stops the run right after the entry, so the whole
//! CP0, the PC and the cycles the entry charged are checked against the
//! specification. One more step then runs the return: `xpcu` at the user
//! handler, `rfe` at both kernel vectors.
//!
//! The specification is checked against a reference model written out
//! here, over every code, both delay-slot flags, both refill facts and
//! with user vectoring allowed or not, so that a wrong field in
//! `exception_entry` fails this test even though the machine applies it.

use efex_mips::cp0::{status, Cp0};
use efex_mips::cycles::{self, EXCEPTION_ENTRY, USER_VECTOR_ENTRY};
use efex_mips::decode::decode;
use efex_mips::encode::encode;
use efex_mips::exception::Exception;
use efex_mips::isa::{Instruction, Reg};
use efex_mips::machine::{
    kseg_to_phys, ExecEngine, Machine, MachineConfig, StopReason, GENERAL_VECTOR, UTLB_VECTOR,
};
use efex_mips::sem::{self, Route};
use efex_mips::tlb::TlbEntry;
use efex_mips::ExcCode;
use proptest::prelude::*;

/// Kernel-mode cases run at this KSEG0 address (physical 0x1000).
const KCODE: u32 = 0x8000_1000;
/// User-mode cases run here, mapped to physical 0x2000.
const UCODE: u32 = 0x0040_0000;
/// The user handler page: every word is `xpcu` (physical 0x3000).
const UHANDLER: u32 = 0x0050_0000;
/// A writable user data page.
const UDATA: u32 = 0x0041_0000;
/// A read-only user page: stores raise `TlbMod`.
const UREADONLY: u32 = 0x0042_0000;
/// A user page whose TLB entry is invalid: a fault, but not a refill.
const UINVALID: u32 = 0x0043_0000;
/// A user page no TLB entry maps: a refill.
const UNMAPPED: u32 = 0x0060_0000;

/// The fault classes.
#[derive(Clone, Copy, Debug)]
enum Class {
    /// A load or store at an address its width does not divide.
    Unaligned,
    /// An aligned user-mode load or store in kernel space (an unaligned
    /// one in kernel mode).
    KernelSpace,
    /// A load or store in a page no TLB entry maps.
    Refill,
    /// A load or store in a page whose TLB entry is invalid.
    Invalid,
    /// A store to a read-only page.
    Modified,
    Overflow,
    Break,
    Syscall,
}

const CLASSES: [Class; 8] = [
    Class::Unaligned,
    Class::KernelSpace,
    Class::Refill,
    Class::Invalid,
    Class::Modified,
    Class::Overflow,
    Class::Break,
    Class::Syscall,
];

/// One faulting program and the exception it must raise.
#[derive(Debug)]
struct Case {
    user: bool,
    /// The words at the code base: `nop`s, the branch if any, the fault.
    words: Vec<u32>,
    regs: Vec<(Reg, u32)>,
    /// CP0 when the fault is raised.
    pre: Cp0,
    exc: Exception,
    tlb_refill: bool,
}

/// The branch or jump of kind `kind` (0..12), with its registers `$s0` to
/// `$s3` and its offsets chosen by the case.
fn branch(kind: usize, imm: i16, target: u32) -> Instruction {
    use Instruction::*;
    let (rs, rt) = (Reg::S0, Reg::S1);
    match kind {
        0 => J { target },
        1 => Jal { target },
        2 => Jr { rs: Reg::S2 },
        3 => Jalr {
            rd: Reg::S3,
            rs: Reg::S2,
        },
        4 => Beq { rs, rt, imm },
        5 => Bne { rs, rt, imm },
        6 => Blez { rs, imm },
        7 => Bgtz { rs, imm },
        8 => Bltz { rs, imm },
        9 => Bgez { rs, imm },
        10 => Bltzal { rs, imm },
        _ => Bgezal { rs, imm },
    }
}

/// A load or store through `$t0` of the given width (1, 2 or 4 bytes).
fn access(store: bool, width: u32) -> Instruction {
    use Instruction::*;
    let (rt, base, imm) = (Reg::T1, Reg::T0, 0);
    match (store, width) {
        (false, 1) => Lb { rt, base, imm },
        (false, 2) => Lh { rt, base, imm },
        (false, _) => Lw { rt, base, imm },
        (true, 1) => Sb { rt, base, imm },
        (true, 2) => Sh { rt, base, imm },
        (true, _) => Sw { rt, base, imm },
    }
}

/// Builds a case from its random choices: the fault class, the branch or
/// jump kind (12 or more for none, so that half the faults sit outside a
/// delay slot), the number of leading `nop`s, a branch offset,
/// eight words for registers, addresses and choices, and ten for CP0.
fn build(class: Class, kind: usize, lead: usize, imm: i16, raw: &[u32], cp0: &[u32]) -> Case {
    let (user, store) = (raw[4] & 1 != 0, raw[4] & 2 != 0);
    let slot = (kind < 12).then(|| branch(kind, imm, raw[5] & 0x03ff_ffff));
    let mut regs = vec![(Reg::S0, raw[0]), (Reg::S1, raw[1]), (Reg::S2, raw[2])];
    let width = [1, 2, 4][(raw[6] % 3) as usize];
    let offset = raw[3] & 0xfff & !(width - 1);
    let addr_err = if store {
        ExcCode::AddrErrStore
    } else {
        ExcCode::AddrErrLoad
    };
    let (inst, code, bad, tlb_refill) = match class {
        Class::KernelSpace if user => {
            let addr = 0x8000_0000 | (raw[3] & !(width - 1));
            (access(store, width), addr_err, Some(addr), false)
        }
        Class::Unaligned | Class::KernelSpace => {
            // Width 1 is never misaligned: use a halfword or a word.
            let width = if width == 1 { 2 } else { width };
            let addr = UDATA + (raw[3] & 0xff0) + 1 + raw[3] % (width - 1);
            (access(store, width), addr_err, Some(addr), false)
        }
        Class::Refill | Class::Invalid | Class::Modified => {
            let (page, store) = match class {
                Class::Refill => (UNMAPPED, store),
                Class::Invalid => (UINVALID, store),
                _ => (UREADONLY, true),
            };
            let addr = page + offset;
            let code = match (class, store) {
                (Class::Modified, _) => ExcCode::TlbMod,
                (_, true) => ExcCode::TlbStore,
                (_, false) => ExcCode::TlbLoad,
            };
            let refill = matches!(class, Class::Refill);
            (access(store, width), code, Some(addr), refill)
        }
        Class::Overflow => {
            let big = 0x4000_0000 + (raw[0] & 0x3fff_ffff);
            let positive = 0x4000_0000 + (raw[1] & 0x3fff_ffff);
            let imm = 1 + (raw[2] % 0x7fff) as i16;
            let (inst, t2, t3) = match raw[3] % 3 {
                0 => (
                    Instruction::Add {
                        rd: Reg::T2,
                        rs: Reg::T2,
                        rt: Reg::T3,
                    },
                    big,
                    positive,
                ),
                1 => (
                    Instruction::Sub {
                        rd: Reg::T2,
                        rs: Reg::T2,
                        rt: Reg::T3,
                    },
                    big + 0x4000_0000, // in [-2^31, -2^30)
                    positive,
                ),
                _ => (
                    Instruction::Addi {
                        rt: Reg::T2,
                        rs: Reg::T2,
                        imm,
                    },
                    0x7fff_ffff - (raw[0] % imm as u32),
                    0,
                ),
            };
            regs.extend([(Reg::T2, t2), (Reg::T3, t3)]);
            (inst, ExcCode::Overflow, None, false)
        }
        Class::Break => (
            Instruction::Break {
                code: raw[0] & 0xf_ffff,
            },
            ExcCode::Breakpoint,
            None,
            false,
        ),
        Class::Syscall => (
            Instruction::Syscall {
                code: raw[0] & 0xf_ffff,
            },
            ExcCode::Syscall,
            None,
            false,
        ),
    };
    regs.push((Reg::T1, raw[1]));
    if let Some(addr) = bad {
        regs.push((Reg::T0, addr));
    }

    let mut words = vec![encode(Instruction::NOP); lead];
    if let Some(branch) = slot {
        words.push(encode(branch));
    }
    words.push(encode(inst));
    let base = if user { UCODE } else { KCODE };
    let pc = base + 4 * (words.len() as u32 - 1);

    let mut pre = Cp0::new();
    let mode = if user { status::KUC } else { 0 };
    pre.status = (cp0[0] & (status::KU_IE_STACK | status::UXE | status::UXA) & !status::KUC) | mode;
    // Mostly enable the fault's own code, so the user route is common.
    pre.uxm = if cp0[1] & 3 != 0 {
        cp0[1] | (1 << code.code())
    } else {
        cp0[1]
    };
    pre.uxt = UHANDLER + (cp0[2] & 0xffc);
    pre.random = cp0[3] % 56;
    pre.entry_hi = cp0[4];
    pre.context = cp0[5];
    pre.bad_vaddr = cp0[6];
    pre.epc = cp0[7];
    pre.uxc = cp0[8];
    pre.entry_lo = cp0[9];
    pre.index = (cp0[9] >> 3) & 0x3f00;
    pre.cause = cp0[8].rotate_left(7);
    Case {
        user,
        words,
        regs,
        pre,
        exc: Exception {
            code,
            bad_vaddr: bad,
            in_delay_slot: slot.is_some(),
            pc,
        },
        tlb_refill,
    }
}

fn machine(case: &Case, engine: ExecEngine) -> Machine {
    let mut m = Machine::with_config(1 << 20, MachineConfig::default().engine(engine));
    let rfe = encode(Instruction::Rfe);
    for v in [UTLB_VECTOR, GENERAL_VECTOR] {
        m.mem_mut()
            .write_u32(kseg_to_phys(v).unwrap(), rfe)
            .unwrap();
    }
    let xpcu = encode(Instruction::Xpcu);
    for a in (0x3000..0x4000).step_by(4) {
        m.mem_mut().write_u32(a, xpcu).unwrap();
    }
    let pages = [
        (UCODE, 2, true, false),
        (UHANDLER, 3, true, false),
        (UDATA, 0x41, true, true),
        (UREADONLY, 0x42, true, false),
        (UINVALID, 0x43, false, true),
    ];
    for (i, (vaddr, pfn, valid, dirty)) in pages.into_iter().enumerate() {
        m.tlb_mut().write(
            i,
            TlbEntry {
                vpn: vaddr >> 12,
                asid: 0,
                pfn,
                valid,
                dirty,
                global: true,
                user_modifiable: false,
            },
        );
    }
    let paddr = if case.user { 0x2000 } else { 0x1000 };
    for (i, &w) in case.words.iter().enumerate() {
        m.mem_mut().write_u32(paddr + 4 * i as u32, w).unwrap();
    }
    for &(r, v) in &case.regs {
        m.cpu_mut().set_reg(r, v);
    }
    *m.cp0_mut() = case.pre.clone();
    m.set_pc(if case.user { UCODE } else { KCODE });
    m
}

/// The reference model: the R3000 entry of Kane & Heinrich, chapter 5,
/// the paper's user vectoring (Section 2), and the deviations `sem`
/// names, each written out field by field.
fn reference(
    pre: &Cp0,
    exc: Exception,
    tlb_refill: bool,
    user_vectoring: bool,
) -> (Route, u32, Cp0, u64) {
    let bit = |v: u32, n: u32| (v >> n) & 1;
    let user = bit(pre.status, 1) == 1;
    let code = exc.code as u32;
    let condition = (code * 4) + if exc.in_delay_slot { 1 << 31 } else { 0 };
    let resume = exc.pc - if exc.in_delay_slot { 4 } else { 0 };
    let uxe = bit(pre.status, 16) == 1;
    let uxa = bit(pre.status, 17) == 1;
    let masked_in = bit(pre.uxm, code) == 1;
    let mut post = pre.clone();
    if let Some(v) = exc.bad_vaddr {
        assert!(exc.code.has_bad_vaddr());
        post.bad_vaddr = v;
    }
    if user_vectoring
        && user
        && uxe
        && !uxa
        && masked_in
        && !matches!(exc.code, ExcCode::Interrupt | ExcCode::Syscall)
        && !tlb_refill
    {
        post.uxt = resume;
        post.uxc = condition;
        post.status = pre.status | 1 << 17;
        return (Route::User, pre.uxt, post, USER_VECTOR_ENTRY);
    }
    // KUo/IEo <- KUp/IEp, KUp/IEp <- KUc/IEc, KUc/IEc <- 0.
    let mut s = pre.status;
    for (to, from) in [(5, 3), (4, 2), (3, 1), (2, 0)] {
        s = (s & !(1 << to)) | (bit(pre.status, from) << to);
    }
    post.status = s & !3;
    post.cause = condition;
    post.epc = resume;
    if let Some(v) = exc.bad_vaddr {
        post.entry_hi = (v >> 12 << 12) | (pre.entry_hi % 4096);
        post.context = (pre.context >> 21 << 21) | (((v >> 12) & 0x7_ffff) << 2);
    }
    post.random = (pre.random + 7) % 56;
    let kuseg = exc.bad_vaddr.is_some_and(|v| v >> 31 == 0);
    if tlb_refill && user && kuseg {
        (Route::Utlb, UTLB_VECTOR, post, EXCEPTION_ENTRY)
    } else {
        (Route::General, GENERAL_VECTOR, post, EXCEPTION_ENTRY)
    }
}

/// Checks `sem::exception_entry` against the reference on the case's CP0,
/// for every code (with the case's address when the code carries one),
/// both delay-slot flags, both refill facts where a code can be a refill,
/// and with user vectoring allowed or ruled out.
fn check_spec(case: &Case) -> Result<(), TestCaseError> {
    let addr = case.exc.bad_vaddr.unwrap_or(UNMAPPED);
    for code in ExcCode::ALL {
        for in_delay_slot in [false, true] {
            let exc = Exception {
                code,
                bad_vaddr: code.has_bad_vaddr().then_some(addr),
                in_delay_slot,
                pc: case.exc.pc,
            };
            let refills: &[bool] = if matches!(code, ExcCode::TlbLoad | ExcCode::TlbStore) {
                &[false, true]
            } else {
                &[false]
            };
            for &tlb_refill in refills {
                for user_vectoring in [false, true] {
                    let mut post = case.pre.clone();
                    let e = sem::exception_entry(&mut post, exc, tlb_refill, user_vectoring);
                    let (route, pc, cp0, cycles) =
                        reference(&case.pre, exc, tlb_refill, user_vectoring);
                    prop_assert_eq!(
                        (e.route, e.pc, &post, e.cycles),
                        (route, pc, &cp0, cycles),
                        "{} refill {} user vectoring {}",
                        exc,
                        tlb_refill,
                        user_vectoring
                    );
                }
            }
        }
    }
    Ok(())
}

/// Runs the case on `engine` and checks the entry and the return against
/// the specification. Returns the machine after the return.
fn check_machine(case: &Case, engine: ExecEngine) -> Result<Machine, TestCaseError> {
    let mut m = machine(case, engine);
    let budget = case.words.len() as u64;
    let before = m.cycles();
    let stop = m
        .run(budget)
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(stop, StopReason::StepLimit);

    let mut post = case.pre.clone();
    let entry = sem::exception_entry(&mut post, case.exc, case.tlb_refill, true);
    prop_assert_eq!(m.cp0(), &post, "CP0 after {}", case.exc);
    prop_assert_eq!(m.cpu().pc, entry.pc);
    prop_assert_eq!(m.exceptions_taken(), 1);
    prop_assert_eq!(m.instructions_retired(), budget - 1);
    let executed: u64 = case
        .words
        .iter()
        .map(|&w| cycles::charged(decode(w).unwrap(), case.user))
        .sum();
    prop_assert_eq!(m.cycles() - before, executed + entry.cycles);
    if !case.user {
        prop_assert_eq!(entry.route, Route::General);
    }

    // The return: `xpcu` resumes at UXT and clears UXA; `rfe` pops the
    // KU/IE stack and changes nothing else.
    let stop = m.run(1).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(stop, StopReason::StepLimit);
    let mut want = post.clone();
    if entry.route == Route::User {
        prop_assert_eq!(m.cpu().pc, post.uxt, "xpcu resumes at UXT");
        want.uxt = entry.pc + 4;
        want.status = case.pre.status;
    } else {
        prop_assert_eq!(
            m.cp0().status & 0xf,
            case.pre.status & 0xf,
            "rfe restores the current and previous KU/IE"
        );
        want.status = (post.status & !0xf) | (case.pre.status & 0xf);
    }
    prop_assert_eq!(m.cp0(), &want, "CP0 after the return");
    Ok(m)
}

/// 1024 cases, or `PROPTEST_CASES` when set (`ci.sh` runs more).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Both engines enter and leave every fault class, in and out of every
    /// kind of delay slot, as `sem::exception_entry` says, and the
    /// specification agrees with the reference model.
    #[test]
    fn exception_entry_conforms_to_the_specification(
        class in 0..CLASSES.len(),
        kind in 0usize..24,
        lead in 0usize..3,
        imm: i16,
        raw in prop::collection::vec(any::<u32>(), 8..9),
        cp0 in prop::collection::vec(any::<u32>(), 10..11),
    ) {
        let case = build(CLASSES[class], kind, lead, imm, &raw, &cp0);
        check_spec(&case)?;
        let a = check_machine(&case, ExecEngine::Interpreter)?;
        let b = check_machine(&case, ExecEngine::Superblock)?;
        prop_assert_eq!(a.cp0(), b.cp0());
        prop_assert_eq!(a.cpu().regs(), b.cpu().regs());
    }
}
