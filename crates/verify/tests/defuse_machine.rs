//! `defuse` agrees with the machine.
//!
//! symex's liveness rests on two facts about [`defuse`]: an instruction
//! changes no general register but [`defuse::writes`] (HI/LO only for the
//! multiply, divide and move-to forms), and what it does depends on no
//! general register outside [`defuse::reads`]. Each case runs one random
//! instruction in kernel mode in front of an `hcall`, with an `hcall` at both
//! exception vectors, and checks both facts.

use efex_mips::encode::encode;
use efex_mips::isa::{Instruction, Reg};
use efex_mips::machine::{
    kseg_to_phys, ExecEngine, Machine, MachineConfig, StopReason, GENERAL_VECTOR, UTLB_VECTOR,
};
use efex_mips::sem;
use efex_verify::defuse;
use proptest::prelude::*;

#[path = "../../mips/tests/common/mod.rs"]
mod common;
use common::arb_instruction;

/// The instruction runs here (physical 0x1000).
const CODE: u32 = 0x8000_1000;

/// What one run leaves behind that an instruction can change or decide.
#[derive(Clone, PartialEq, Eq, Debug)]
struct After {
    stop: StopReason,
    pc: u32,
    regs: [u32; 32],
    hi_lo: (u32, u32),
    cycles: u64,
    /// The data word a store may have written.
    stored: Option<u32>,
}

fn run(inst: Instruction, regs: &[u32], engine: ExecEngine) -> After {
    let mut m = Machine::with_config(1 << 20, MachineConfig::default().engine(engine));
    let vector_hcall = encode(Instruction::Hcall { code: 0x99 });
    for v in [UTLB_VECTOR, GENERAL_VECTOR] {
        let p = kseg_to_phys(v).unwrap();
        m.mem_mut().write_u32(p, vector_hcall).unwrap();
    }
    m.mem_mut().write_u32(0x1000, encode(inst)).unwrap();
    let done = encode(Instruction::Hcall { code: 1 });
    m.mem_mut().write_u32(0x1004, done).unwrap();
    for (n, &v) in regs.iter().enumerate() {
        m.cpu_mut().set_reg(Reg::new(n as u8).unwrap(), v);
    }
    m.cpu_mut().set_hi(0x1111_1111);
    m.cpu_mut().set_lo(0x2222_2222);
    m.set_pc(CODE);
    let stop = m.run(16).unwrap();
    let stored = sem::mem_access(inst).filter(|a| a.store).and_then(|a| {
        m.peek_u32(a.vaddr(regs[a.base.number() as usize]) & !3, false)
            .ok()
    });
    After {
        stop,
        pc: m.cpu().pc,
        regs: m.cpu().regs(),
        hi_lo: (m.cpu().hi(), m.cpu().lo()),
        cycles: m.cycles(),
        stored,
    }
}

fn arb_word() -> BoxedStrategy<u32> {
    prop_oneof![
        any::<u32>(),
        (-4i32..4).prop_map(|v| v as u32),
        (0x8004_8000u32..0x8004_9000).prop_map(|v| v & !3),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn only_defuse_writes_change_and_only_defuse_reads_matter(
        inst in arb_instruction(),
        regs in prop::collection::vec(arb_word(), 32..33),
        flip in 1u32..u32::MAX,
    ) {
        use Instruction::*;
        // Mode and PC changes without a delay slot leave the harness.
        prop_assume!(!matches!(inst, Mtc0 { .. } | Rfe | Xpcu | Hcall { .. }));
        let mut regs = regs;
        regs[0] = 0;
        if let Some(a) = sem::mem_access(inst).filter(|a| a.store) {
            let vaddr = a.vaddr(regs[a.base.number() as usize]);
            prop_assume!(kseg_to_phys(vaddr).is_none_or(|p| p >= 0x2000));
        }
        for engine in [ExecEngine::Interpreter, ExecEngine::Superblock] {
            let after = run(inst, &regs, engine);
            let written = defuse::writes(inst);
            for n in 1..32u8 {
                let r = Reg::new(n).unwrap();
                if Some(r) != written {
                    prop_assert_eq!(after.regs[n as usize], regs[n as usize], "{} changed {}", inst, r);
                }
            }
            let hi_lo_forms = matches!(
                inst,
                Mult { .. } | Multu { .. } | Div { .. } | Divu { .. } | Mthi { .. } | Mtlo { .. }
            );
            if !hi_lo_forms {
                prop_assert_eq!(after.hi_lo, (0x1111_1111, 0x2222_2222), "{} changed HI/LO", inst);
            }

            // Registers outside `reads` change nothing the instruction
            // does (their own values aside).
            let reads = defuse::reads(inst);
            let unread: Vec<usize> = (1..32u8)
                .filter(|&n| !reads.contains(&Reg::new(n).unwrap()))
                .map(usize::from)
                .collect();
            let mut changed = regs.clone();
            for &n in &unread {
                changed[n] ^= flip;
            }
            let mut flipped = run(inst, &changed, engine);
            let retired = after.stop == StopReason::HostCall(1);
            for &n in &unread {
                if written.map(|w| usize::from(w.number())) != Some(n) || !retired {
                    flipped.regs[n] = regs[n];
                }
            }
            prop_assert_eq!(&flipped, &after, "{} depends on an unread register", inst);
        }
    }
}
