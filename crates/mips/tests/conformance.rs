//! The interpreter conforms to `efex_mips::sem` and `cycles::static_cost`.
//!
//! Each case runs one random instruction, with random register values, in
//! front of a terminator: `hcall` in kernel mode, `break` in user mode (where
//! `hcall` is privileged). The terminator is the delay slot when the
//! instruction is a control transfer, and both engines run the pair; the
//! superblock engine runs it inside one block unless the instruction ends
//! blocks. Both exception vectors hold an `hcall`, so a fault stops the run
//! with `Cause` and `EPC` describing it.
//!
//! What the machine did is checked against `sem` and `cycles`, and `sem` and
//! `cycles` are checked against a reference model written out here, so that
//! a wrong formula in `sem` or a wrong term in `static_cost` fails this test
//! even though the machine runs them.

use efex_mips::cp0::status;
use efex_mips::cycles::{self, BASE, DIV, EXCEPTION_ENTRY, MEM_ACCESS, MULT, TLB_OP};
use efex_mips::encode::encode;
use efex_mips::isa::{Instruction, Reg};
use efex_mips::machine::{
    kseg_to_phys, ExecEngine, Machine, MachineConfig, StopReason, GENERAL_VECTOR, UTLB_VECTOR,
};
use efex_mips::sem;
use efex_mips::tlb::TlbEntry;
use efex_mips::ExcCode;
use proptest::prelude::*;

mod common;
use common::arb_instruction;

/// Kernel-mode cases run at this KSEG0 address (physical 0x1000).
const KCODE: u32 = 0x8000_1000;
/// User-mode cases run here, mapped read-only to physical 0x2000.
const UCODE: u32 = 0x0040_0000;
/// A writable user data page, mapped to physical 0x41000.
const UDATA: u32 = 0x0041_0000;
/// Physical span filled with a byte pattern, so loads read something.
const DATA_SPAN: std::ops::Range<u32> = 0x40000..0x51000;
/// `hcall` code after a kernel-mode instruction.
const DONE: u32 = 0x1234;
/// `hcall` code at both exception vectors.
const VECTORED: u32 = 0x99;

/// Register values: arbitrary words, small signed values, the overflow
/// edges, and addresses near the data the loads and stores can reach.
fn arb_word() -> BoxedStrategy<u32> {
    prop_oneof![
        any::<u32>(),
        (-8i32..8).prop_map(|v| v as u32),
        Just(0x7fff_ffff),
        Just(0x8000_0000),
        (0x8004_8000u32..0x8004_9000).prop_map(|v| v & !3),
        (UDATA..UDATA + 0x1000).prop_map(|v| v & !3),
    ]
    .boxed()
}

/// How a case ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum End {
    /// The instruction retired and the terminator ran; `pc` is where
    /// execution would continue (kernel mode only: a user-mode terminator
    /// traps).
    Retired { pc: Option<u32> },
    /// The instruction itself raised this exception.
    Fault(ExcCode),
}

/// What a case left behind.
struct Run {
    machine: Machine,
    end: End,
    /// Cycles the instruction itself was charged: the total, less the
    /// terminator, exception entry and vector `hcall` around it.
    cycles: u64,
}

fn run(inst: Instruction, regs: &[u32], user: bool, engine: ExecEngine) -> Result<Run, String> {
    let mut m = Machine::with_config(1 << 20, MachineConfig::default().engine(engine));
    let vector_hcall = encode(Instruction::Hcall { code: VECTORED });
    for v in [UTLB_VECTOR, GENERAL_VECTOR] {
        m.mem_mut()
            .write_u32(kseg_to_phys(v).unwrap(), vector_hcall)
            .unwrap();
    }
    let pattern: Vec<u8> = DATA_SPAN
        .map(|a| (a.wrapping_mul(0x9e37_79b1) >> 24) as u8)
        .collect();
    m.mem_mut().write_bytes(DATA_SPAN.start, &pattern).unwrap();
    for (i, (vaddr, pfn, dirty)) in [(UCODE, 2, false), (UDATA, 0x41, true)]
        .into_iter()
        .enumerate()
    {
        m.tlb_mut().write(
            i,
            TlbEntry {
                vpn: vaddr >> 12,
                asid: 0,
                pfn,
                valid: true,
                dirty,
                global: true,
                user_modifiable: false,
            },
        );
    }
    let (base, paddr, terminator) = if user {
        (UCODE, 0x2000, Instruction::Break { code: 0 })
    } else {
        (KCODE, 0x1000, Instruction::Hcall { code: DONE })
    };
    m.mem_mut().write_u32(paddr, encode(inst)).unwrap();
    m.mem_mut()
        .write_u32(paddr + 4, encode(terminator))
        .unwrap();
    for (n, &v) in regs.iter().enumerate() {
        m.cpu_mut().set_reg(Reg::new(n as u8).unwrap(), v);
    }
    if user {
        m.cp0_mut().status |= status::KUC;
    }
    m.set_pc(base);
    let before = m.cycles();
    let stop = m.run(16).map_err(|e| e.to_string())?;
    let total = m.cycles() - before;
    let cp0 = m.cp0();
    let (end, overhead) = match stop {
        StopReason::HostCall(DONE) => (
            End::Retired {
                pc: Some(m.cpu().pc),
            },
            BASE,
        ),
        StopReason::HostCall(VECTORED) => {
            let code = cp0.exc_code().ok_or("vectored without a cause")?;
            let (epc, bd) = (cp0.epc, cp0.cause_bd());
            if epc == base && !bd {
                (End::Fault(code), EXCEPTION_ENTRY + BASE)
            } else if user
                && code == ExcCode::Breakpoint
                && ((epc == base + 4 && !bd) || (epc == base && bd))
            {
                // The terminating `break` (after the instruction, or in its
                // delay slot) trapped: the instruction retired.
                (End::Retired { pc: None }, BASE + EXCEPTION_ENTRY + BASE)
            } else {
                return Err(format!("unexpected {code:?} at {epc:#x} (bd {bd})"));
            }
        }
        other => return Err(format!("unexpected stop {other:?}")),
    };
    Ok(Run {
        machine: m,
        end,
        cycles: total - overhead,
    })
}

/// The destination and operand values of a foldable ALU instruction, by
/// [`sem::alu_operands`] (which the machine does not use: its arms name
/// their operands themselves).
fn alu_operands(inst: Instruction, regs: &[u32]) -> Option<(Reg, u32, u32)> {
    sem::alu_operands(inst).map(|(rd, rs, rt)| (rd, reg(regs, rs), reg(regs, rt)))
}

/// Reference ALU: the exact result in 64-bit arithmetic, then whether a
/// trapping form overflows 32 bits. `None` for non-ALU instructions.
fn reference_alu(inst: Instruction, a: u32, b: u32) -> Option<(u32, bool)> {
    use Instruction::*;
    let (sa, sb) = (i64::from(a as i32), i64::from(b as i32));
    let (ua, ub) = (u64::from(a), u64::from(b));
    let fits = |v: i64| v == i64::from(v as i32);
    let exact = |v: i64| (v as u32, false);
    let trapping = |v: i64| (v as u32, !fits(v));
    Some(match inst {
        Sll { shamt, .. } => ((ub << shamt) as u32, false),
        Srl { shamt, .. } => ((ub >> shamt) as u32, false),
        Sra { shamt, .. } => exact(sb >> shamt),
        Sllv { .. } => ((ub << (a % 32)) as u32, false),
        Srlv { .. } => ((ub >> (a % 32)) as u32, false),
        Srav { .. } => exact(sb >> (a % 32)),
        Add { .. } => trapping(sa + sb),
        Addu { .. } => exact(sa + sb),
        Sub { .. } => trapping(sa - sb),
        Subu { .. } => exact(sa - sb),
        And { .. } => (a & b, false),
        Or { .. } => (a | b, false),
        Xor { .. } => (a ^ b, false),
        Nor { .. } => (!(a | b), false),
        Slt { .. } => (u32::from(sa < sb), false),
        Sltu { .. } => (u32::from(ua < ub), false),
        Addi { imm, .. } => trapping(sa + i64::from(imm)),
        Addiu { imm, .. } => exact(sa + i64::from(imm)),
        Slti { imm, .. } => (u32::from(sa < i64::from(imm)), false),
        Sltiu { imm, .. } => (u32::from(ua < u64::from(i32::from(imm) as u32)), false),
        Andi { imm, .. } => (a & u32::from(imm), false),
        Ori { imm, .. } => (a | u32::from(imm), false),
        Xori { imm, .. } => (a ^ u32::from(imm), false),
        Lui { imm, .. } => (u32::from(imm) * 0x1_0000, false),
        _ => return None,
    })
}

/// Reference branch condition over the `rs`/`rt` values.
fn reference_taken(inst: Instruction, a: u32, b: u32) -> Option<bool> {
    use Instruction::*;
    let sa = a as i32;
    Some(match inst {
        Beq { .. } => a == b,
        Bne { .. } => a != b,
        Blez { .. } => sa <= 0,
        Bgtz { .. } => sa > 0,
        Bltz { .. } | Bltzal { .. } => sa < 0,
        Bgez { .. } | Bgezal { .. } => sa >= 0,
        _ => return None,
    })
}

/// Reference cycle charge per opcode class.
fn reference_cycles(inst: Instruction, user: bool) -> u64 {
    use Instruction::*;
    match inst {
        Lb { .. }
        | Lh { .. }
        | Lw { .. }
        | Lbu { .. }
        | Lhu { .. }
        | Sb { .. }
        | Sh { .. }
        | Sw { .. } => BASE + MEM_ACCESS,
        Mult { .. } | Multu { .. } => BASE + MULT,
        Div { .. } | Divu { .. } => BASE + DIV,
        // Refused before any TLB work when issued from user mode.
        Tlbr | Tlbwi | Tlbwr | Tlbp if user => BASE,
        Tlbr | Tlbwi | Tlbwr | Tlbp | Utlbp { .. } => BASE + TLB_OP,
        _ => BASE,
    }
}

fn reg(regs: &[u32], r: Reg) -> u32 {
    regs[r.number() as usize]
}

/// Operand values where the semantics change: the carry and sign edges,
/// the shift-amount edges, and the (sign- and zero-extended) immediate and
/// its neighbours, where the set-less-than forms flip.
fn edges(inst: Instruction) -> Vec<u32> {
    use Instruction::*;
    let imm = match inst {
        Addi { imm, .. } | Addiu { imm, .. } | Slti { imm, .. } | Sltiu { imm, .. } => {
            i32::from(imm) as u32
        }
        Andi { imm, .. } | Ori { imm, .. } | Xori { imm, .. } | Lui { imm, .. } => u32::from(imm),
        _ => 0,
    };
    let mut v = vec![
        0,
        1,
        2,
        31,
        32,
        33,
        0x7fff_ffff,
        0x8000_0000,
        0xffff_fffe,
        u32::MAX,
    ];
    v.extend([imm, imm.wrapping_add(1), imm.wrapping_sub(1)]);
    v
}

/// Checks `sem` itself against the reference model, on the case's operands
/// and on every pair of edge operands.
fn check_sem(inst: Instruction, regs: &[u32]) -> Result<(), TestCaseError> {
    use Instruction::*;
    let mut values = edges(inst);
    if let Some((_, a, b)) = alu_operands(inst, regs) {
        values.extend([a, b]);
    }
    for &a in &values {
        for &b in &values {
            if let Some((value, overflows)) = reference_alu(inst, a, b) {
                prop_assert_eq!(
                    sem::alu_overflows(inst, a, b),
                    overflows,
                    "{} {:#x} {:#x}",
                    inst,
                    a,
                    b
                );
                prop_assert_eq!(
                    sem::alu_result(inst, a, b),
                    (!overflows).then_some(value),
                    "{} {:#x} {:#x}",
                    inst,
                    a,
                    b
                );
            } else {
                prop_assert_eq!(sem::alu_result(inst, a, b), None);
                prop_assert!(!sem::alu_overflows(inst, a, b));
            }
            prop_assert_eq!(
                sem::branch_taken(inst, a, b),
                reference_taken(inst, a, b),
                "{} {:#x} {:#x}",
                inst,
                a,
                b
            );
        }
    }
    // Targets from the case's address and from the edges of a 256 MB region.
    for pc in [
        KCODE,
        UCODE,
        0x0fff_fff8,
        0x0fff_fffc,
        0x8fff_fffc,
        0xffff_fffc,
    ] {
        let next = pc.wrapping_add(4);
        match inst {
            J { target } | Jal { target } => {
                let reference = (next & !0x0fff_ffff) + 4 * target;
                prop_assert_eq!(sem::jump_target(pc, target), reference);
            }
            _ => {
                if let Some((_, _, imm)) = sem::branch_operands(inst) {
                    let reference = (i64::from(next) + 4 * i64::from(imm)) as u32;
                    prop_assert_eq!(sem::branch_target(pc, imm), reference);
                }
            }
        }
    }
    // Load extension over the sign edges of each width.
    if let Some(a) = sem::mem_access(inst) {
        let bits = 8 * a.width;
        let mask = u32::MAX >> (32 - bits);
        for raw in [
            0,
            1,
            0x7f,
            0x80,
            0xff,
            0x7fff,
            0x8000,
            0xffff,
            0x7fff_ffff,
            0x8000_0000,
            u32::MAX,
        ] {
            let raw = raw & mask;
            let reference = if a.signed {
                ((raw << (32 - bits)) as i32 >> (32 - bits)) as u32
            } else {
                raw
            };
            prop_assert_eq!(a.extend(raw), reference, "{} raw {:#x}", inst, raw);
        }
    }
    Ok(())
}

/// Checks one engine's run of `inst` against `sem` and `cycles`.
fn check_machine(
    inst: Instruction,
    regs: &[u32],
    user: bool,
    r: &Run,
) -> Result<(), TestCaseError> {
    use Instruction::*;
    let base = if user { UCODE } else { KCODE };
    let cpu = r.machine.cpu();
    let fault = match r.end {
        End::Fault(code) => Some(code),
        End::Retired { .. } => None,
    };

    // Cycles: the static cost, but for the one user-mode refusal.
    prop_assert_eq!(r.cycles, cycles::charged(inst, user));
    prop_assert_eq!(r.cycles, reference_cycles(inst, user));
    let refused_tlb_op = user && matches!(inst, Tlbr | Tlbwi | Tlbwr | Tlbp);
    if !refused_tlb_op {
        prop_assert_eq!(r.cycles, cycles::static_cost(inst));
    }

    // ALU: the destination, and `Overflow` exactly when `sem` says so.
    if let Some((dst, a, b)) = alu_operands(inst, regs) {
        prop_assert_eq!(
            fault == Some(ExcCode::Overflow),
            sem::alu_overflows(inst, a, b)
        );
        if fault.is_none() && dst != Reg::ZERO {
            prop_assert_eq!(Some(cpu.reg(dst)), sem::alu_result(inst, a, b));
        }
    } else {
        prop_assert!(fault != Some(ExcCode::Overflow));
    }

    // Loads and stores: the width and extension `sem` gives them.
    if let (Some(a), None) = (sem::mem_access(inst), fault) {
        let vaddr = a.vaddr(reg(regs, a.base));
        let m = &r.machine;
        let raw = match a.width {
            1 => m.peek_u8(vaddr, user).map(u32::from),
            2 => m.peek_u16(vaddr, user).map(u32::from),
            _ => m.peek_u32(vaddr, user),
        }
        .map_err(|e| TestCaseError::fail(format!("retired access unreadable: {e}")))?;
        if a.store {
            prop_assert_eq!(raw, reg(regs, a.rt) & (u32::MAX >> (32 - 8 * a.width)));
        } else if a.rt != Reg::ZERO {
            prop_assert_eq!(cpu.reg(a.rt), a.extend(raw));
        }
    }

    // Control flow: where execution continues after the delay slot.
    let Some(pc) = (match r.end {
        End::Retired { pc } => pc,
        End::Fault(_) => None,
    }) else {
        return Ok(());
    };
    let taken = sem::branch_operands(inst)
        .filter(|&(rs, rt, _)| sem::branch_taken(inst, reg(regs, rs), reg(regs, rt)) == Some(true));
    let expected = match (inst, taken) {
        (J { target } | Jal { target }, _) => sem::jump_target(base, target),
        (Jr { rs } | Jalr { rs, .. }, _) => reg(regs, rs),
        (_, Some((_, _, imm))) => sem::branch_target(base, imm),
        _ => base + 8,
    };
    prop_assert_eq!(pc, expected, "next pc of {}", inst);
    let link = match inst {
        Jal { .. } | Bltzal { .. } | Bgezal { .. } => Some(Reg::RA),
        Jalr { rd, .. } => Some(rd),
        _ => None,
    };
    if let Some(rd) = link.filter(|&rd| rd != Reg::ZERO) {
        prop_assert_eq!(cpu.reg(rd), base + 8);
    }
    Ok(())
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

    /// Both engines run one random instruction as `sem` and `static_cost`
    /// define it, and agree with each other.
    #[test]
    fn interpreter_conforms_to_sem_and_static_cost(
        inst in arb_instruction(),
        regs in prop::collection::vec(arb_word(), 32..33),
        user: bool,
    ) {
        use Instruction::*;
        let mut regs = regs;
        regs[0] = 0;
        // Mode and PC changes without a delay slot leave the harness's
        // frame; `hcall` is the harness's own terminator.
        prop_assume!(!matches!(inst, Mtc0 { .. } | Rfe | Xpcu | Hcall { .. }));
        // Keep kernel stores off the vectors and the code pages.
        if let Some(a) = sem::mem_access(inst).filter(|a| a.store && !user) {
            let vaddr = a.vaddr(reg(&regs, a.base));
            prop_assume!(kseg_to_phys(vaddr).is_none_or(|p| p >= 0x3000));
        }
        check_sem(inst, &regs)?;
        let mut runs = Vec::new();
        for engine in [ExecEngine::Interpreter, ExecEngine::Superblock] {
            let r = run(inst, &regs, user, engine).map_err(TestCaseError::fail)?;
            check_machine(inst, &regs, user, &r)?;
            runs.push(r);
        }
        let (a, b) = (&runs[0], &runs[1]);
        prop_assert_eq!(a.end, b.end);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.machine.cpu().regs(), b.machine.cpu().regs());
    }
}
