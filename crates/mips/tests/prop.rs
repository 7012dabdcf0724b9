//! Property-based tests for the ISA, TLB, and machine.

use efex_mips::decode::decode;
use efex_mips::encode::encode;
use efex_mips::isa::{Instruction, Reg};
use efex_mips::machine::{kseg_to_phys, Machine, StopReason};
use efex_mips::tlb::{Tlb, TlbEntry, TlbFault, PAGE_SIZE};
use proptest::prelude::*;

mod common;
use common::{arb_instruction, arb_reg};

proptest! {
    /// decode(encode(i)) == i for every canonical instruction.
    #[test]
    fn encode_decode_round_trip(inst in arb_instruction()) {
        prop_assert_eq!(decode(encode(inst)).unwrap(), inst);
    }

    /// Decoding never panics on arbitrary words, and when it succeeds the
    /// re-encoded canonical form decodes to the same instruction.
    #[test]
    fn decode_total_and_stable(word in any::<u32>()) {
        if let Ok(inst) = decode(word) {
            prop_assert_eq!(decode(encode(inst)).unwrap(), inst);
        }
    }

    /// TLB translation preserves the page offset and maps to the entry's
    /// frame.
    #[test]
    fn tlb_translation_preserves_offset(
        vpn in 0u32..0x7ffff,
        pfn in 0u32..0xfffff,
        asid in 0u8..64,
        offset in 0u32..PAGE_SIZE,
    ) {
        let mut tlb = Tlb::new();
        tlb.write(0, TlbEntry { vpn, asid, pfn, valid: true, dirty: true, global: false, user_modifiable: false });
        let vaddr = (vpn << 12) | offset;
        prop_assert_eq!(tlb.translate(vaddr, asid, false), Ok((pfn << 12) | offset));
    }

    /// A miss is reported for any address whose VPN differs from every
    /// resident entry.
    #[test]
    fn tlb_miss_for_unmapped(vpn in 0u32..0x7ffff, other in 0u32..0x7ffff) {
        prop_assume!(vpn != other);
        let mut tlb = Tlb::new();
        tlb.write(3, TlbEntry { vpn, asid: 0, pfn: 1, valid: true, dirty: true, global: false, user_modifiable: false });
        prop_assert_eq!(tlb.translate(other << 12, 0, false), Err(TlbFault::Miss));
    }

    /// Entry raw-image round trip for arbitrary field values.
    #[test]
    fn tlb_entry_raw_round_trip(
        vpn in 0u32..0xfffff,
        pfn in 0u32..0xfffff,
        asid in 0u8..64,
        valid: bool, dirty: bool, global: bool, um: bool,
    ) {
        let e = TlbEntry { vpn, asid, pfn, valid, dirty, global, user_modifiable: um };
        prop_assert_eq!(TlbEntry::from_raw(e.entry_hi(), e.entry_lo()), e);
    }

    /// Straight-line ALU programs retire exactly their instruction count and
    /// stop at the trailing hcall.
    #[test]
    fn straight_line_programs_retire(ops in prop::collection::vec(
        (arb_reg(), arb_reg(), any::<i16>()), 1..40)
    ) {
        let mut m = Machine::new(1 << 20);
        let base = 0x8000_4000u32;
        let paddr = kseg_to_phys(base).unwrap();
        for (i, (rt, rs, imm)) in ops.iter().enumerate() {
            let w = encode(Instruction::Addiu { rt: *rt, rs: *rs, imm: *imm });
            m.mem_mut().write_u32(paddr + 4 * i as u32, w).unwrap();
        }
        m.mem_mut()
            .write_u32(paddr + 4 * ops.len() as u32, encode(Instruction::Hcall { code: 1 }))
            .unwrap();
        m.set_pc(base);
        let stop = m.run(10 + ops.len() as u64).unwrap();
        prop_assert_eq!(stop, StopReason::HostCall(1));
        prop_assert_eq!(m.instructions_retired(), ops.len() as u64 + 1);
        prop_assert_eq!(m.cpu().reg(Reg::ZERO), 0);
    }

    /// The assembler and the machine agree: `li` then `hcall` leaves the
    /// 32-bit value in the register for any i32.
    #[test]
    fn li_materializes_any_value(v in any::<i32>()) {
        let src = format!(".org 0x80004000\nli $t0, {v}\nhcall 0\n");
        let prog = efex_mips::asm::assemble(&src).unwrap();
        let mut m = Machine::new(1 << 20);
        m.load_image(&prog).unwrap();
        m.set_pc(prog.entry());
        m.run(10).unwrap();
        prop_assert_eq!(m.cpu().reg(Reg::T0), v as u32);
    }
}
