//! Address-aware disassembly.
//!
//! [`Instruction`]'s `Display` prints raw operands (branch offsets as
//! word-deltas, jumps as absolute encodings). This module renders
//! instructions *at an address*, resolving branch and jump targets to
//! absolute addresses and, when a symbol table is supplied, to labels —
//! the form a debugger or trace listing wants.

use std::collections::BTreeMap;

use crate::decode::decode;
use crate::isa::Instruction;
use crate::machine::Machine;
use crate::sem;

/// Renders one instruction located at `addr`, resolving control-transfer
/// targets through `symbols` when possible.
pub fn disassemble_at(
    inst: Instruction,
    addr: u32,
    symbols: Option<&BTreeMap<String, u32>>,
) -> String {
    use Instruction::*;
    let rel = |imm: i16| sem::branch_target(addr, imm);
    let abs = |target: u32| sem::jump_target(addr, target);
    let name = |t: u32| -> String {
        if let Some(syms) = symbols {
            if let Some((n, _)) = syms.iter().find(|(_, a)| **a == t) {
                return format!("{t:#x} <{n}>");
            }
        }
        format!("{t:#x}")
    };
    match inst {
        Beq { rs, rt, imm } => format!("beq {rs}, {rt}, {}", name(rel(imm))),
        Bne { rs, rt, imm } => format!("bne {rs}, {rt}, {}", name(rel(imm))),
        Blez { rs, imm } => format!("blez {rs}, {}", name(rel(imm))),
        Bgtz { rs, imm } => format!("bgtz {rs}, {}", name(rel(imm))),
        Bltz { rs, imm } => format!("bltz {rs}, {}", name(rel(imm))),
        Bgez { rs, imm } => format!("bgez {rs}, {}", name(rel(imm))),
        Bltzal { rs, imm } => format!("bltzal {rs}, {}", name(rel(imm))),
        Bgezal { rs, imm } => format!("bgezal {rs}, {}", name(rel(imm))),
        J { target } => format!("j {}", name(abs(target))),
        Jal { target } => format!("jal {}", name(abs(target))),
        other => other.to_string(),
    }
}

/// Disassembles a range of guest memory (KSEG0/KSEG1 or TLB-mapped),
/// returning `(address, word, text)` rows. Undecodable words are rendered
/// as `.word`.
pub fn disassemble_range(
    machine: &Machine,
    start: u32,
    words: u32,
    symbols: Option<&BTreeMap<String, u32>>,
) -> Vec<(u32, u32, String)> {
    let mut out = Vec::with_capacity(words as usize);
    for i in 0..words {
        let addr = start.wrapping_add(4 * i);
        let word = machine.peek_u32(addr, false).unwrap_or(0);
        let text = match decode(word) {
            Ok(inst) => disassemble_at(inst, addr, symbols),
            Err(_) => format!(".word {word:#010x}"),
        };
        out.push((addr, word, text));
    }
    out
}

/// Formats [`disassemble_range`] rows as a listing with optional label
/// lines.
pub fn listing(rows: &[(u32, u32, String)], symbols: Option<&BTreeMap<String, u32>>) -> String {
    let mut out = String::new();
    for (addr, word, text) in rows {
        if let Some(syms) = symbols {
            for (name, a) in syms {
                if a == addr {
                    out.push_str(&format!("{name}:\n"));
                }
            }
        }
        out.push_str(&format!("  {addr:#010x}:  {word:08x}  {text}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::machine::Machine;

    fn machine_with(src: &str) -> (Machine, crate::asm::Program) {
        let prog = assemble(src).unwrap();
        let mut m = Machine::new(1 << 20);
        m.load_image(&prog).unwrap();
        (m, prog)
    }

    #[test]
    fn branch_targets_resolve_to_labels() {
        let (m, prog) = machine_with(
            r#"
            .org 0x80001000
            top:
                bne $t0, $t1, top
                nop
                j   done
                nop
            done:
                jr $ra
                nop
        "#,
        );
        let rows = disassemble_range(&m, 0x8000_1000, 6, Some(prog.symbols()));
        assert!(rows[0].2.contains("<top>"), "{}", rows[0].2);
        assert!(rows[2].2.contains("<done>"), "{}", rows[2].2);
        assert_eq!(rows[4].2, "jr $ra");
    }

    #[test]
    fn without_symbols_targets_are_hex() {
        let (m, _) = machine_with(
            r#"
            .org 0x80001000
            b next
            nop
            next: nop
        "#,
        );
        let rows = disassemble_range(&m, 0x8000_1000, 1, None);
        assert!(rows[0].2.contains("0x80001008"), "{}", rows[0].2);
    }

    #[test]
    fn undecodable_words_render_as_data() {
        let mut m = Machine::new(1 << 20);
        m.mem_mut().write_u32(0x1000, 0xffff_ffff).unwrap();
        let rows = disassemble_range(&m, 0x8000_1000, 1, None);
        assert!(rows[0].2.starts_with(".word"), "{}", rows[0].2);
    }

    #[test]
    fn listing_includes_label_lines() {
        let (m, prog) = machine_with(
            r#"
            .org 0x80001000
            main:
                nop
                jr $ra
                nop
        "#,
        );
        let rows = disassemble_range(&m, 0x8000_1000, 3, Some(prog.symbols()));
        let text = listing(&rows, Some(prog.symbols()));
        assert!(text.contains("main:\n"), "{text}");
        assert!(text.contains("nop"));
    }

    #[test]
    fn round_trip_through_assembler_is_reparseable() {
        // Disassembled plain instructions re-assemble to the same words
        // (branches/jumps excepted: they print absolute targets).
        let src = r#"
            .org 0x80001000
            addu $t0, $t1, $t2
            sll  $s0, $s1, 7
            lw   $a0, -8($sp)
            sw   $a0, 12($gp)
            ori  $v0, $zero, 0x1234
            mfhi $t9
            tlbwi
            rfe
        "#;
        let (m, _) = machine_with(src);
        let rows = disassemble_range(&m, 0x8000_1000, 8, None);
        let rebuilt: String = rows.iter().map(|(_, _, t)| format!("{t}\n")).collect();
        let prog2 = assemble(&format!(".org 0x80001000\n{rebuilt}")).unwrap();
        let orig = assemble(src).unwrap();
        assert_eq!(prog2.segments()[0].bytes, orig.segments()[0].bytes);
    }
}
