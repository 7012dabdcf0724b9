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
//! - [`exception_entry`] — everything one exception entry changes: CP0,
//!   the route and where execution continues, and the entry's charge.
//!   [`crate::machine::Machine::raise`] takes every exception the machine
//!   raises through it, and [`crate::machine::Machine::raise_to_kernel`]
//!   the traps the kernel re-raises.
//!
//! The functions are *total* over their domain: they never panic, matching
//! the hardware they model. They are `#[inline(always)]` because the
//! interpreter calls them from one match arm per opcode, where the inner
//! match on the opcode folds away.
//!
//! Exception entry deviates from the R3000 on purpose, each deviation
//! pinned by a test in this module:
//!
//! - EntryHi and Context latch on every kernel entry that carries a bad
//!   address, not only on TLB faults;
//! - BadVAddr latches on bus errors too;
//! - Random steps by 7 (mod 56) per kernel entry instead of counting down
//!   every cycle, so that `tlbwr` is deterministic.

use crate::cp0::{cause, status, Cp0};
use crate::cycles::{EXCEPTION_ENTRY, USER_VECTOR_ENTRY};
use crate::exception::{ExcCode, Exception};
use crate::isa::{Instruction, Reg};
use crate::machine::{GENERAL_VECTOR, UTLB_VECTOR};

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

/// The way into a handler that an exception entry takes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Route {
    /// The paper's user-level vectoring (Section 2): PC and UXT exchange.
    User,
    /// The user TLB refill vector, [`UTLB_VECTOR`].
    Utlb,
    /// The general exception vector, [`GENERAL_VECTOR`].
    General,
}

/// What an exception entry does besides updating CP0.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Entry {
    /// The route taken.
    pub route: Route,
    /// Where execution continues: the user handler (the old UXT) or the
    /// route's vector.
    pub pc: u32,
    /// The entry's charge.
    pub cycles: u64,
}

/// Takes the exception entry for `exc` on `cp0` and returns the route, the
/// new PC and the charge. It touches nothing but `cp0`, so a test can run
/// it on a copy; it updates in place because returning a fresh copy of
/// CP0 per exception cost about 5% of `guest-user` host time.
///
/// `tlb_refill` says that no TLB entry matches the bad address of a
/// `TlbLoad`/`TlbStore`; `user_vectoring` allows the user route at all.
///
/// - **User route**, when allowed: user mode, UXE set and UXA clear, a
///   synchronous code other than `syscall`, enabled in UXM, and not a TLB
///   refill. UXT takes the resume address, the old UXT becomes the PC, UXC
///   takes the code and BD laid out as in Cause, UXA is set and BadVAddr
///   latches. Costs [`USER_VECTOR_ENTRY`].
/// - **Kernel routes** otherwise: the KU/IE stack pushes, Cause takes the
///   code and BD, EPC the resume address, BadVAddr, EntryHi's VPN and
///   Context's BadVPN the bad address, and Random steps. A TLB refill from
///   user mode on a KUSEG address takes the UTLB vector, anything else the
///   general vector. Costs [`EXCEPTION_ENTRY`].
///
/// The resume address is the faulting instruction's, or the branch's when
/// it sits in a delay slot.
#[inline]
pub fn exception_entry(
    cp0: &mut Cp0,
    exc: Exception,
    tlb_refill: bool,
    user_vectoring: bool,
) -> Entry {
    let (code, bd) = (exc.code, exc.in_delay_slot);
    debug_assert_eq!(exc.bad_vaddr.is_some(), code.has_bad_vaddr(), "{exc}");
    let resume = if bd { exc.pc.wrapping_sub(4) } else { exc.pc };
    let condition = code.code() << cause::EXC_SHIFT | if bd { cause::BD } else { 0 };
    let user = cp0.user_mode();
    let route = if user_vectoring
        && user
        && cp0.status & (status::UXE | status::UXA) == status::UXE
        && cp0.uxm & (1 << code.code()) != 0
        && code.is_synchronous()
        && code != ExcCode::Syscall
        && !tlb_refill
    {
        Route::User
    } else if tlb_refill && user && exc.bad_vaddr.is_some_and(|v| v < 0x8000_0000) {
        Route::Utlb
    } else {
        Route::General
    };
    let (pc, cycles) = match route {
        Route::User => (cp0.uxt, USER_VECTOR_ENTRY),
        Route::Utlb => (UTLB_VECTOR, EXCEPTION_ENTRY),
        Route::General => (GENERAL_VECTOR, EXCEPTION_ENTRY),
    };
    if let Some(v) = exc.bad_vaddr {
        cp0.bad_vaddr = v;
    }
    if route == Route::User {
        (cp0.uxt, cp0.uxc) = (resume, condition);
        cp0.status |= status::UXA;
    } else {
        let stack = cp0.status & status::KU_IE_STACK;
        cp0.status = (cp0.status & !status::KU_IE_STACK) | ((stack << 2) & status::KU_IE_STACK);
        (cp0.cause, cp0.epc) = (condition, resume);
        if let Some(v) = exc.bad_vaddr {
            cp0.entry_hi = (v & 0xffff_f000) | (cp0.entry_hi & 0xfff);
            cp0.context = (cp0.context & 0xffe0_0000) | ((v >> 10) & 0x001f_fffc);
        }
        cp0.random = cp0.random.wrapping_add(7) % 56;
    }
    Entry { route, pc, cycles }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exc(code: ExcCode, pc: u32, bad_vaddr: Option<u32>, in_delay_slot: bool) -> Exception {
        Exception {
            code,
            bad_vaddr,
            in_delay_slot,
            pc,
        }
    }

    /// The entry of `e` from a copy of `cp0`: the copy after it, and the
    /// rest of the entry.
    fn entry(cp0: &Cp0, e: Exception, tlb_refill: bool, user_vectoring: bool) -> (Cp0, Entry) {
        let mut post = cp0.clone();
        let entry = exception_entry(&mut post, e, tlb_refill, user_vectoring);
        (post, entry)
    }

    /// The kernel-route entry of `e` from `cp0`.
    fn kernel_entry(cp0: &Cp0, e: Exception) -> Cp0 {
        entry(cp0, e, false, false).0
    }

    #[test]
    fn exception_entry_pushes_mode_stack() {
        let mut cp0 = Cp0::new();
        cp0.status = status::KUC | status::IEC; // user mode, interrupts on
        let (cp0, e) = entry(
            &cp0,
            exc(ExcCode::Breakpoint, 0x1000, None, false),
            false,
            true,
        );
        assert_eq!(
            (e.route, e.pc, e.cycles),
            (Route::General, GENERAL_VECTOR, EXCEPTION_ENTRY)
        );
        assert!(!cp0.user_mode(), "exception entry must enter kernel mode");
        assert_eq!(cp0.status & status::KUP, status::KUP);
        assert_eq!(cp0.status & status::IEP, status::IEP);
        assert_eq!(cp0.epc, 0x1000);
        assert_eq!(cp0.exc_code(), Some(ExcCode::Breakpoint));
    }

    #[test]
    fn rfe_pops_mode_stack() {
        let mut cp0 = Cp0::new();
        cp0.status = status::KUC | status::IEC;
        let mut cp0 = kernel_entry(&cp0, exc(ExcCode::Syscall, 0x2000, None, false));
        cp0.rfe();
        assert!(cp0.user_mode());
        assert_eq!(cp0.status & status::IEC, status::IEC);
    }

    #[test]
    fn double_exception_preserves_old_mode() {
        let mut cp0 = Cp0::new();
        cp0.status = status::KUC | status::IEC;
        let cp0 = kernel_entry(&cp0, exc(ExcCode::Syscall, 0x2000, None, false));
        let mut cp0 = kernel_entry(&cp0, exc(ExcCode::TlbLoad, 0x3000, Some(0x4000), false));
        // Two pops restore the original user mode.
        cp0.rfe();
        cp0.rfe();
        assert!(cp0.user_mode());
    }

    #[test]
    fn bad_vaddr_latches_entry_hi_vpn() {
        let mut cp0 = Cp0::new();
        cp0.entry_hi = 0x0000_00c0; // some ASID
        let cp0 = kernel_entry(
            &cp0,
            exc(ExcCode::TlbStore, 0x1000, Some(0x1234_5678), false),
        );
        assert_eq!(cp0.bad_vaddr, 0x1234_5678);
        assert_eq!(cp0.entry_hi & 0xffff_f000, 0x1234_5000);
        assert_eq!(cp0.entry_hi & 0xfff, 0x0c0, "ASID must be preserved");
    }

    #[test]
    fn bd_flag_recorded_in_cause_and_epc_names_the_branch() {
        let cp0 = kernel_entry(
            &Cp0::new(),
            exc(ExcCode::AddrErrLoad, 0x1004, Some(2), true),
        );
        assert!(cp0.cause_bd());
        assert_eq!(cp0.epc, 0x1000);
    }

    #[test]
    fn user_route_exchanges_pc_and_uxt_and_sets_uxa() {
        let mut cp0 = Cp0::new();
        cp0.status = status::KUC | status::IEC | status::UXE;
        cp0.uxm = 1 << ExcCode::TlbMod.code();
        cp0.uxt = 0x0050_0000;
        let fault = exc(ExcCode::TlbMod, 0x40_0004, Some(0x41_0000), true);
        let (post, e) = entry(&cp0, fault, false, true);
        assert_eq!(
            (e.route, e.pc, e.cycles),
            (Route::User, 0x0050_0000, USER_VECTOR_ENTRY)
        );
        assert_eq!(post.uxt, 0x40_0000, "UXT names the branch");
        assert_eq!(
            post.uxc,
            (ExcCode::TlbMod.code() << cause::EXC_SHIFT) | cause::BD
        );
        assert_eq!(
            post.status,
            cp0.status | status::UXA,
            "mode stack untouched"
        );
        assert_eq!(post.bad_vaddr, 0x41_0000);
        assert_eq!((post.epc, post.cause, post.random), (0, 0, 0));
        // Ruled out by the caller, the same fault takes the kernel route.
        assert_eq!(entry(&cp0, fault, false, false).1.route, Route::General);
    }

    #[test]
    fn user_route_needs_uxe_clear_uxa_and_the_mask_bit() {
        let mut cp0 = Cp0::new();
        cp0.status = status::KUC;
        cp0.uxm = 1 << ExcCode::Breakpoint.code();
        let route = |cp0: &Cp0, code| {
            entry(cp0, exc(code, 0x1000, None, false), false, true)
                .1
                .route
        };
        assert_eq!(
            route(&cp0, ExcCode::Breakpoint),
            Route::General,
            "UXE clear"
        );
        cp0.status |= status::UXE;
        assert_eq!(route(&cp0, ExcCode::Breakpoint), Route::User);
        assert_eq!(route(&cp0, ExcCode::Overflow), Route::General, "masked off");
        cp0.status |= status::UXA;
        assert_eq!(route(&cp0, ExcCode::Breakpoint), Route::General, "UXA set");
    }

    #[test]
    fn tlb_refill_from_user_kuseg_takes_the_utlb_vector() {
        let mut cp0 = Cp0::new();
        cp0.status = status::KUC | status::UXE;
        cp0.uxm = !0;
        let refill = exc(ExcCode::TlbLoad, 0x40_0000, Some(0x1000), false);
        let e = entry(&cp0, refill, true, true).1;
        assert_eq!(
            (e.route, e.pc),
            (Route::Utlb, UTLB_VECTOR),
            "refills are never user-vectored"
        );
        // An invalid entry (not a refill) is user-vectored; from kernel mode
        // a refill takes the general vector.
        assert_eq!(entry(&cp0, refill, false, true).1.route, Route::User);
        assert_eq!(
            entry(&Cp0::new(), refill, true, true).1.route,
            Route::General
        );
    }

    /// Deviation: EntryHi and Context latch on an address error too.
    #[test]
    fn entry_hi_and_context_latch_on_every_address_fault() {
        let mut cp0 = Cp0::new();
        cp0.entry_hi = 0x40;
        cp0.context = 0x8020_0000;
        let cp0 = kernel_entry(
            &cp0,
            exc(ExcCode::AddrErrStore, 0x1000, Some(0x0041_2346), false),
        );
        assert_eq!(cp0.entry_hi, 0x0041_2040);
        assert_eq!(cp0.context, 0x8020_0000 | (0x412 << 2));
    }

    /// Deviation: BadVAddr latches on a bus error.
    #[test]
    fn bad_vaddr_latches_on_a_bus_error() {
        let cp0 = kernel_entry(
            &Cp0::new(),
            exc(ExcCode::BusErrData, 0x1000, Some(0x8ff0_0000), false),
        );
        assert_eq!(cp0.bad_vaddr, 0x8ff0_0000);
    }

    /// Deviation: Random steps by 7 (mod 56) per kernel entry, and not at
    /// all on a user-vectored one.
    #[test]
    fn random_steps_by_seven_per_kernel_entry() {
        let mut cp0 = Cp0::new();
        cp0.random = 52;
        let brk = exc(ExcCode::Breakpoint, 0x1000, None, false);
        assert_eq!(kernel_entry(&cp0, brk).random, 3);
        cp0.status = status::KUC | status::UXE;
        cp0.uxm = !0;
        assert_eq!(entry(&cp0, brk, false, true).0.random, 52);
    }

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
