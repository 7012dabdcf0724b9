//! Strategies shared by the `efex-mips` property tests.

use efex_mips::isa::{Instruction, Reg, TlbProtOp};
use proptest::prelude::*;

/// Any general register, `$zero` included.
pub fn arb_reg() -> BoxedStrategy<Reg> {
    (0u8..32).prop_map(|n| Reg::new(n).unwrap()).boxed()
}

fn arb_prot_op() -> impl Strategy<Value = TlbProtOp> {
    prop_oneof![
        Just(TlbProtOp::WriteProtect),
        Just(TlbProtOp::WriteEnable),
        Just(TlbProtOp::ProtectAll),
        Just(TlbProtOp::ReadEnable),
    ]
}

/// Every instruction variant, with canonical operands (so `encode` then
/// `decode` gives it back).
pub fn arb_instruction() -> impl Strategy<Value = Instruction> {
    use Instruction::*;
    let r3 = (arb_reg(), arb_reg(), arb_reg());
    prop_oneof![
        (arb_reg(), arb_reg(), 0u8..32).prop_map(|(rd, rt, shamt)| Sll { rd, rt, shamt }),
        (arb_reg(), arb_reg(), 0u8..32).prop_map(|(rd, rt, shamt)| Srl { rd, rt, shamt }),
        (arb_reg(), arb_reg(), 0u8..32).prop_map(|(rd, rt, shamt)| Sra { rd, rt, shamt }),
        r3.clone().prop_map(|(rd, rs, rt)| Sllv { rd, rt, rs }),
        r3.clone().prop_map(|(rd, rs, rt)| Srlv { rd, rt, rs }),
        r3.clone().prop_map(|(rd, rs, rt)| Srav { rd, rt, rs }),
        r3.clone().prop_map(|(rd, rs, rt)| Add { rd, rs, rt }),
        r3.clone().prop_map(|(rd, rs, rt)| Addu { rd, rs, rt }),
        r3.clone().prop_map(|(rd, rs, rt)| Sub { rd, rs, rt }),
        r3.clone().prop_map(|(rd, rs, rt)| Subu { rd, rs, rt }),
        r3.clone().prop_map(|(rd, rs, rt)| And { rd, rs, rt }),
        r3.clone().prop_map(|(rd, rs, rt)| Or { rd, rs, rt }),
        r3.clone().prop_map(|(rd, rs, rt)| Xor { rd, rs, rt }),
        r3.clone().prop_map(|(rd, rs, rt)| Nor { rd, rs, rt }),
        r3.clone().prop_map(|(rd, rs, rt)| Slt { rd, rs, rt }),
        r3.prop_map(|(rd, rs, rt)| Sltu { rd, rs, rt }),
        (arb_reg(), arb_reg()).prop_map(|(rs, rt)| Mult { rs, rt }),
        (arb_reg(), arb_reg()).prop_map(|(rs, rt)| Multu { rs, rt }),
        (arb_reg(), arb_reg()).prop_map(|(rs, rt)| Div { rs, rt }),
        (arb_reg(), arb_reg()).prop_map(|(rs, rt)| Divu { rs, rt }),
        arb_reg().prop_map(|rd| Mfhi { rd }),
        arb_reg().prop_map(|rd| Mflo { rd }),
        arb_reg().prop_map(|rs| Mthi { rs }),
        arb_reg().prop_map(|rs| Mtlo { rs }),
        arb_reg().prop_map(|rs| Jr { rs }),
        (arb_reg(), arb_reg()).prop_map(|(rd, rs)| Jalr { rd, rs }),
        (0u32..0xf_ffff).prop_map(|code| Syscall { code }),
        (0u32..0xf_ffff).prop_map(|code| Break { code }),
        (arb_reg(), arb_reg(), any::<i16>()).prop_map(|(rs, rt, imm)| Beq { rs, rt, imm }),
        (arb_reg(), arb_reg(), any::<i16>()).prop_map(|(rs, rt, imm)| Bne { rs, rt, imm }),
        (arb_reg(), any::<i16>()).prop_map(|(rs, imm)| Blez { rs, imm }),
        (arb_reg(), any::<i16>()).prop_map(|(rs, imm)| Bgtz { rs, imm }),
        (arb_reg(), any::<i16>()).prop_map(|(rs, imm)| Bltz { rs, imm }),
        (arb_reg(), any::<i16>()).prop_map(|(rs, imm)| Bgez { rs, imm }),
        (arb_reg(), any::<i16>()).prop_map(|(rs, imm)| Bltzal { rs, imm }),
        (arb_reg(), any::<i16>()).prop_map(|(rs, imm)| Bgezal { rs, imm }),
        (arb_reg(), arb_reg(), any::<i16>()).prop_map(|(rt, rs, imm)| Addi { rt, rs, imm }),
        (arb_reg(), arb_reg(), any::<i16>()).prop_map(|(rt, rs, imm)| Addiu { rt, rs, imm }),
        (arb_reg(), arb_reg(), any::<i16>()).prop_map(|(rt, rs, imm)| Slti { rt, rs, imm }),
        (arb_reg(), arb_reg(), any::<i16>()).prop_map(|(rt, rs, imm)| Sltiu { rt, rs, imm }),
        (arb_reg(), arb_reg(), any::<u16>()).prop_map(|(rt, rs, imm)| Andi { rt, rs, imm }),
        (arb_reg(), arb_reg(), any::<u16>()).prop_map(|(rt, rs, imm)| Ori { rt, rs, imm }),
        (arb_reg(), arb_reg(), any::<u16>()).prop_map(|(rt, rs, imm)| Xori { rt, rs, imm }),
        (arb_reg(), any::<u16>()).prop_map(|(rt, imm)| Lui { rt, imm }),
        (arb_reg(), arb_reg(), any::<i16>()).prop_map(|(rt, base, imm)| Lb { rt, base, imm }),
        (arb_reg(), arb_reg(), any::<i16>()).prop_map(|(rt, base, imm)| Lbu { rt, base, imm }),
        (arb_reg(), arb_reg(), any::<i16>()).prop_map(|(rt, base, imm)| Lh { rt, base, imm }),
        (arb_reg(), arb_reg(), any::<i16>()).prop_map(|(rt, base, imm)| Lhu { rt, base, imm }),
        (arb_reg(), arb_reg(), any::<i16>()).prop_map(|(rt, base, imm)| Lw { rt, base, imm }),
        (arb_reg(), arb_reg(), any::<i16>()).prop_map(|(rt, base, imm)| Sb { rt, base, imm }),
        (arb_reg(), arb_reg(), any::<i16>()).prop_map(|(rt, base, imm)| Sh { rt, base, imm }),
        (arb_reg(), arb_reg(), any::<i16>()).prop_map(|(rt, base, imm)| Sw { rt, base, imm }),
        (0u32..0x03ff_ffff).prop_map(|target| J { target }),
        (0u32..0x03ff_ffff).prop_map(|target| Jal { target }),
        (arb_reg(), 0u8..32).prop_map(|(rt, rd)| Mfc0 { rt, rd }),
        (arb_reg(), 0u8..32).prop_map(|(rt, rd)| Mtc0 { rt, rd }),
        Just(Tlbr),
        Just(Tlbwi),
        Just(Tlbwr),
        Just(Tlbp),
        Just(Rfe),
        Just(Xpcu),
        (arb_reg(), arb_prot_op()).prop_map(|(rs, op)| Utlbp { rs, op }),
        (0u32..0x03ff_ffff).prop_map(|code| Hcall { code }),
    ]
}
