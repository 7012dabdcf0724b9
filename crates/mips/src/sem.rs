//! Pure instruction semantics: the one definition of what the foldable
//! fragment of the ISA computes.
//!
//! [`crate::machine::Machine`] executes these functions, the kernel's
//! delay-slot and subpage emulation (`efex-simos`) re-evaluates branches and
//! accesses with them, and the symbolic delivery-path explorer in
//! `efex-verify` folds an instruction through them whenever all of its
//! operands are known. There is no second copy to drift from:
//!
//! - [`alu_result`] — the result an ALU instruction writes, or `None` when
//!   the instruction is not a foldable ALU operation (loads, stores,
//!   control transfers, CP0 moves, `mult`/`div` pairs).
//! - [`alu_overflows`] — whether a trapping add/sub raises `Overflow`.
//! - [`branch_taken`] — whether a conditional branch is taken.
//! - [`branch_target`] and [`jump_target`] — where a PC-relative branch or a
//!   `j`/`jal` goes.
//! - [`mem_access`] — the registers, width and extension of a load or store.
//!
//! The functions are *total* over their domain: they never panic, matching
//! the hardware they model. They are `#[inline(always)]` because the
//! interpreter calls them from one match arm per opcode, where the inner
//! match on the opcode folds away.

use crate::isa::{Instruction, Reg};

/// The concrete result written by a foldable ALU instruction, given the
/// values of its source registers.
///
/// `rs` and `rt` are the values of the instruction's `rs`/`rt` (or
/// `base`/`rt`) register fields; unused operands are ignored. Returns `None`
/// for instructions that are not simple register-writing ALU operations
/// (memory accesses, branches, `mult`/`div` — which write HI/LO — CP0 moves,
/// and system instructions), and for trapping `add`/`addi`/`sub` *when the
/// operation would overflow* (the instruction then writes nothing and raises
/// [`crate::exception::ExcCode::Overflow`]).
///
/// ```
/// use efex_mips::isa::{Instruction, Reg};
/// use efex_mips::sem::alu_result;
/// let i = Instruction::Addiu { rt: Reg::T0, rs: Reg::T1, imm: -4 };
/// assert_eq!(alu_result(i, 100, 0), Some(96));
/// ```
#[inline(always)]
pub fn alu_result(inst: Instruction, rs: u32, rt: u32) -> Option<u32> {
    use Instruction::*;
    Some(match inst {
        Sll { shamt, .. } => rt << shamt,
        Srl { shamt, .. } => rt >> shamt,
        Sra { shamt, .. } => ((rt as i32) >> shamt) as u32,
        Sllv { .. } => rt << (rs & 31),
        Srlv { .. } => rt >> (rs & 31),
        Srav { .. } => ((rt as i32) >> (rs & 31)) as u32,
        Add { .. } => (rs as i32).checked_add(rt as i32)? as u32,
        Addu { .. } => rs.wrapping_add(rt),
        Sub { .. } => (rs as i32).checked_sub(rt as i32)? as u32,
        Subu { .. } => rs.wrapping_sub(rt),
        And { .. } => rs & rt,
        Or { .. } => rs | rt,
        Xor { .. } => rs ^ rt,
        Nor { .. } => !(rs | rt),
        Slt { .. } => ((rs as i32) < (rt as i32)) as u32,
        Sltu { .. } => (rs < rt) as u32,
        Addi { imm, .. } => (rs as i32).checked_add(imm as i32)? as u32,
        Addiu { imm, .. } => rs.wrapping_add(imm as i32 as u32),
        Slti { imm, .. } => ((rs as i32) < (imm as i32)) as u32,
        Sltiu { imm, .. } => (rs < (imm as i32 as u32)) as u32,
        Andi { imm, .. } => rs & (imm as u32),
        Ori { imm, .. } => rs | (imm as u32),
        Xori { imm, .. } => rs ^ (imm as u32),
        Lui { imm, .. } => (imm as u32) << 16,
        _ => return None,
    })
}

/// The registers of a foldable ALU instruction: `(destination, rs, rt)`,
/// where `rs` and `rt` are the registers whose values [`alu_result`] takes
/// and `$zero` stands in for an operand it ignores (the shift amount of
/// `sll`, the second operand of an immediate form). `None` for anything
/// [`alu_result`] does not fold.
pub fn alu_operands(inst: Instruction) -> Option<(Reg, Reg, Reg)> {
    use Instruction::*;
    Some(match inst {
        Sll { rd, rt, .. } | Srl { rd, rt, .. } | Sra { rd, rt, .. } => (rd, Reg::ZERO, rt),
        Sllv { rd, rt, rs }
        | Srlv { rd, rt, rs }
        | Srav { rd, rt, rs }
        | Add { rd, rs, rt }
        | Addu { rd, rs, rt }
        | Sub { rd, rs, rt }
        | Subu { rd, rs, rt }
        | And { rd, rs, rt }
        | Or { rd, rs, rt }
        | Xor { rd, rs, rt }
        | Nor { rd, rs, rt }
        | Slt { rd, rs, rt }
        | Sltu { rd, rs, rt } => (rd, rs, rt),
        Addi { rt, rs, .. }
        | Addiu { rt, rs, .. }
        | Slti { rt, rs, .. }
        | Sltiu { rt, rs, .. }
        | Andi { rt, rs, .. }
        | Ori { rt, rs, .. }
        | Xori { rt, rs, .. } => (rt, rs, Reg::ZERO),
        Lui { rt, .. } => (rt, Reg::ZERO, Reg::ZERO),
        _ => return None,
    })
}

/// Whether a trapping `add`/`addi`/`sub` overflows (and therefore raises an
/// exception instead of writing its destination) for the given operand
/// values. Always `false` for non-trapping instructions.
#[inline(always)]
pub fn alu_overflows(inst: Instruction, rs: u32, rt: u32) -> bool {
    use Instruction::*;
    match inst {
        Add { .. } => (rs as i32).checked_add(rt as i32).is_none(),
        Sub { .. } => (rs as i32).checked_sub(rt as i32).is_none(),
        Addi { imm, .. } => (rs as i32).checked_add(imm as i32).is_none(),
        _ => false,
    }
}

/// Whether a conditional branch is taken, given its source register values.
///
/// Returns `None` for instructions that are not conditional branches
/// (unconditional jumps transfer control regardless; everything else falls
/// through).
#[inline(always)]
pub fn branch_taken(inst: Instruction, rs: u32, rt: u32) -> Option<bool> {
    use Instruction::*;
    Some(match inst {
        Beq { .. } => rs == rt,
        Bne { .. } => rs != rt,
        Blez { .. } => (rs as i32) <= 0,
        Bgtz { .. } => (rs as i32) > 0,
        Bltz { .. } | Bltzal { .. } => (rs as i32) < 0,
        Bgez { .. } | Bgezal { .. } => (rs as i32) >= 0,
        _ => return None,
    })
}

/// The registers a conditional branch compares and its word offset:
/// `(rs, rt, imm)`, with `rt` = `$zero` for the branches that test `rs`
/// against zero, so that [`branch_taken`] of their values decides it. `None`
/// for anything but a conditional branch.
pub fn branch_operands(inst: Instruction) -> Option<(Reg, Reg, i16)> {
    use Instruction::*;
    match inst {
        Beq { rs, rt, imm } | Bne { rs, rt, imm } => Some((rs, rt, imm)),
        Blez { rs, imm }
        | Bgtz { rs, imm }
        | Bltz { rs, imm }
        | Bgez { rs, imm }
        | Bltzal { rs, imm }
        | Bgezal { rs, imm } => Some((rs, Reg::ZERO, imm)),
        _ => None,
    }
}

/// The target of a PC-relative branch at `pc`: the delay slot's address
/// plus the word offset `imm`.
#[inline(always)]
pub fn branch_target(pc: u32, imm: i16) -> u32 {
    pc.wrapping_add(4)
        .wrapping_add((i32::from(imm) << 2) as u32)
}

/// The target of a `j`/`jal` at `pc`: the 26-bit word field within the
/// delay slot's 256 MB region.
#[inline(always)]
pub fn jump_target(pc: u32, target: u32) -> u32 {
    (pc.wrapping_add(4) & 0xf000_0000) | (target << 2)
}

/// What one load or store moves: its data register, its address operands,
/// its width, and how a loaded value is extended into the register.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemAccess {
    /// The register loaded into or stored from.
    pub rt: Reg,
    /// The base register of the address.
    pub base: Reg,
    /// The signed byte offset added to the base.
    pub imm: i16,
    /// Access width in bytes: 1, 2 or 4.
    pub width: u32,
    /// A load sign-extends its value (`lb`, `lh`); always `false` for stores.
    pub signed: bool,
    /// The access writes memory.
    pub store: bool,
}

impl MemAccess {
    /// The effective virtual address, given the base register's value.
    #[inline(always)]
    pub fn vaddr(self, base: u32) -> u32 {
        base.wrapping_add(self.imm as i32 as u32)
    }

    /// The register value a load writes, given the `width` bytes it read,
    /// zero-extended to a word.
    #[inline(always)]
    pub fn extend(self, raw: u32) -> u32 {
        match (self.signed, self.width) {
            (true, 1) => raw as u8 as i8 as i32 as u32,
            (true, 2) => raw as u16 as i16 as i32 as u32,
            _ => raw,
        }
    }
}

/// The registers, width and extension of a load or store, or `None` for any
/// other instruction.
#[inline(always)]
pub fn mem_access(inst: Instruction) -> Option<MemAccess> {
    use Instruction::*;
    let (rt, base, imm, width, signed, store) = match inst {
        Lb { rt, base, imm } => (rt, base, imm, 1, true, false),
        Lh { rt, base, imm } => (rt, base, imm, 2, true, false),
        Lw { rt, base, imm } => (rt, base, imm, 4, false, false),
        Lbu { rt, base, imm } => (rt, base, imm, 1, false, false),
        Lhu { rt, base, imm } => (rt, base, imm, 2, false, false),
        Sb { rt, base, imm } => (rt, base, imm, 1, false, true),
        Sh { rt, base, imm } => (rt, base, imm, 2, false, true),
        Sw { rt, base, imm } => (rt, base, imm, 4, false, true),
        _ => return None,
    };
    Some(MemAccess {
        rt,
        base,
        imm,
        width,
        signed,
        store,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r3(_: ()) -> (Reg, Reg, Reg) {
        (Reg::T0, Reg::T1, Reg::T2)
    }

    #[test]
    fn alu_matches_two_complement_semantics() {
        let (rd, rs, rt) = r3(());
        assert_eq!(
            alu_result(Instruction::Addu { rd, rs, rt }, u32::MAX, 1),
            Some(0)
        );
        assert_eq!(
            alu_result(Instruction::Sub { rd, rs, rt }, 5, 7),
            Some((-2i32) as u32)
        );
        assert_eq!(
            alu_result(Instruction::Sra { rd, rt, shamt: 4 }, 0, 0x8000_0000),
            Some(0xf800_0000)
        );
        assert_eq!(alu_result(Instruction::Sltu { rd, rs, rt }, 1, 2), Some(1));
        assert_eq!(
            alu_result(
                Instruction::Slti {
                    rt: rd,
                    rs,
                    imm: -1
                },
                u32::MAX,
                0
            ),
            Some(0)
        );
        assert_eq!(
            alu_result(
                Instruction::Lui {
                    rt: rd,
                    imm: 0x8000
                },
                0,
                0
            ),
            Some(0x8000_0000)
        );
    }

    #[test]
    fn trapping_forms_refuse_to_fold_on_overflow() {
        let (rd, rs, rt) = r3(());
        assert_eq!(
            alu_result(Instruction::Add { rd, rs, rt }, 0x7fff_ffff, 1),
            None
        );
        assert!(alu_overflows(
            Instruction::Add { rd, rs, rt },
            0x7fff_ffff,
            1
        ));
        assert!(!alu_overflows(
            Instruction::Addu { rd, rs, rt },
            0x7fff_ffff,
            1
        ));
        assert!(alu_overflows(
            Instruction::Addi { rt, rs, imm: -1 },
            0x8000_0000,
            0
        ));
    }

    #[test]
    fn branch_conditions() {
        let (_, rs, rt) = r3(());
        assert_eq!(
            branch_taken(Instruction::Beq { rs, rt, imm: 1 }, 3, 3),
            Some(true)
        );
        assert_eq!(
            branch_taken(Instruction::Bne { rs, rt, imm: 1 }, 3, 3),
            Some(false)
        );
        assert_eq!(
            branch_taken(Instruction::Bltz { rs, imm: 1 }, 0x8000_0000, 0),
            Some(true)
        );
        assert_eq!(
            branch_taken(Instruction::Bgez { rs, imm: 1 }, 0, 0),
            Some(true)
        );
        assert_eq!(branch_taken(Instruction::J { target: 0 }, 0, 0), None);
    }

    #[test]
    fn transfer_targets() {
        assert_eq!(branch_target(0x400_0000, -1), 0x400_0000);
        assert_eq!(branch_target(0x400_0000, 2), 0x400_000c);
        assert_eq!(jump_target(0x8000_0100, 0x40), 0x8000_0100);
        // The region is the delay slot's, not the jump's.
        assert_eq!(jump_target(0x0fff_fffc, 0x40), 0x1000_0100);
    }

    #[test]
    fn loads_extend_by_width_and_sign() {
        let lb = Instruction::Lb {
            rt: Reg::T0,
            base: Reg::SP,
            imm: -4,
        };
        let a = mem_access(lb).unwrap();
        assert_eq!(a.vaddr(0x100), 0xfc);
        assert_eq!(a.extend(0x80), 0xffff_ff80);
        let lhu = Instruction::Lhu {
            rt: Reg::T0,
            base: Reg::SP,
            imm: 0,
        };
        assert_eq!(mem_access(lhu).unwrap().extend(0x8000), 0x8000);
        let sh = mem_access(Instruction::Sh {
            rt: Reg::T0,
            base: Reg::SP,
            imm: 0,
        })
        .unwrap();
        assert!(sh.store && sh.width == 2 && !sh.signed);
        assert_eq!(mem_access(Instruction::NOP), None);
    }

    #[test]
    fn non_alu_instructions_do_not_fold() {
        assert_eq!(
            alu_result(
                Instruction::Lw {
                    rt: Reg::T0,
                    base: Reg::SP,
                    imm: 0
                },
                0,
                0
            ),
            None
        );
        assert_eq!(alu_result(Instruction::Rfe, 0, 0), None);
        assert_eq!(
            alu_result(
                Instruction::Mult {
                    rs: Reg::T0,
                    rt: Reg::T1
                },
                2,
                3
            ),
            None
        );
    }
}
