//! A two-pass MIPS assembler.
//!
//! The simulated kernel's exception handlers — including the fast-path
//! handler whose instruction counts regenerate the paper's Table 3 — are
//! written in assembly source and assembled at startup by this module.
//!
//! # Syntax
//!
//! - One statement per line; `#` or `;` starts a comment.
//! - Labels: `name:`, optionally followed by a statement on the same line.
//! - Directives: `.org ADDR`, `.word V, …`, `.half V, …`, `.byte V, …`,
//!   `.asciiz "s"`, `.space N`, `.align N` (power of two), `.globl SYM`
//!   (accepted, ignored), `.entry SYM`, `.equ NAME, EXPR` (constants; may
//!   reference earlier symbols).
//! - Registers: `$t0` or `$8`; CP0 registers by name (`$epc`, `$status`,
//!   `$cause`, `$badvaddr`, `$entryhi`, `$entrylo`, `$index`, `$context`,
//!   `$uxt`, `$uxc`, `$uxm`) or number in `mfc0`/`mtc0`.
//! - Pseudo-instructions: `nop`, `li`, `la`, `move`, `b`, `beqz`, `bnez`,
//!   `not`, `neg`, and the two-instruction comparison branches
//!   `blt`/`bge`/`bgt`/`ble` (+ unsigned `…u` forms) through `$at`.
//!
//! # Example
//!
//! ```
//! use efex_mips::asm::assemble;
//! let prog = assemble(r#"
//!     .org 0x80002000
//!     loop:
//!         addiu $t0, $t0, 1
//!         bne   $t0, $t1, loop
//!         nop
//!         hcall 0
//! "#).unwrap();
//! assert_eq!(prog.symbol("loop"), Some(0x8000_2000));
//! ```

mod lexer;
mod parser;

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::encode::encode;
use crate::isa::Instruction;

pub(crate) use lexer::{tokenize, Token};
pub(crate) use parser::{parse_line, Item, Stmt};

/// A contiguous chunk of assembled bytes at a fixed address.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Segment {
    /// Start (virtual) address.
    pub addr: u32,
    /// The assembled bytes.
    pub bytes: Vec<u8>,
}

/// The output of [`assemble`]: segments plus the symbol table and source
/// metadata (code labels, per-word source lines) for diagnostics.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    entry: u32,
    segments: Vec<Segment>,
    symbols: BTreeMap<String, u32>,
    /// Symbols defined as *code labels* (`name:`), excluding `.equ`
    /// constants — the set against which addresses are located.
    labels: BTreeMap<String, u32>,
    /// Emitted address → 1-based source line. Every instruction word gets an
    /// entry (pseudo-instruction expansions share their statement's line);
    /// data statements record their start address only.
    lines: BTreeMap<u32, u32>,
}

impl Program {
    /// The entry point: the `.entry` symbol if given, else the first
    /// instruction assembled.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// The assembled segments in source order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Looks up a label.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// The full symbol table.
    pub fn symbols(&self) -> &BTreeMap<String, u32> {
        &self.symbols
    }

    /// The code labels (symbols defined with `name:`, excluding `.equ`
    /// constants), name → address.
    pub fn labels(&self) -> &BTreeMap<String, u32> {
        &self.labels
    }

    /// The 1-based source line that emitted the word at `addr`, if any.
    pub fn line_at(&self, addr: u32) -> Option<u32> {
        self.lines.get(&addr).copied()
    }

    /// Resolves `addr` to `(label, byte offset)` against the nearest code
    /// label at or before it. Returns `None` when no label precedes `addr`.
    pub fn locate(&self, addr: u32) -> Option<(&str, u32)> {
        self.labels
            .iter()
            .filter(|&(_, &a)| a <= addr)
            .max_by_key(|&(_, &a)| a)
            .map(|(name, &a)| (name.as_str(), addr - a))
    }

    /// Fetches the little-endian word assembled at `addr`, if `addr` falls
    /// inside a segment with at least 4 bytes remaining.
    pub fn word_at(&self, addr: u32) -> Option<u32> {
        for seg in &self.segments {
            if addr >= seg.addr {
                let off = (addr - seg.addr) as usize;
                if off + 4 <= seg.bytes.len() {
                    let b = &seg.bytes[off..off + 4];
                    return Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
                }
            }
        }
        None
    }
}

/// An assembly error, with the 1-based source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AsmError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl AsmError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> AsmError {
        AsmError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

/// Assembles source text into a [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line for syntax errors,
/// unknown mnemonics, undefined or duplicate labels, and out-of-range
/// operands.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    // Parse every line once.
    let mut items: Vec<(usize, Item)> = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let tokens = tokenize(raw).map_err(|m| AsmError::new(line_no, m))?;
        let parsed = parse_line(&tokens).map_err(|m| AsmError::new(line_no, m))?;
        for item in parsed {
            items.push((line_no, item));
        }
    }

    // Pass 1: lay out addresses and collect symbols.
    let mut symbols: BTreeMap<String, u32> = BTreeMap::new();
    let mut labels: BTreeMap<String, u32> = BTreeMap::new();
    let mut addr: u32 = 0;
    let mut entry_sym: Option<(usize, String)> = None;
    let mut first_inst: Option<u32> = None;
    for (line, item) in &items {
        match item {
            Item::Label(name) => {
                if symbols.insert(name.clone(), addr).is_some() {
                    return Err(AsmError::new(*line, format!("duplicate label `{name}`")));
                }
                labels.insert(name.clone(), addr);
            }
            Item::Stmt(stmt) => {
                if let Stmt::Org(a) = stmt {
                    addr = *a;
                    continue;
                }
                if let Stmt::Entry(sym) = stmt {
                    entry_sym = Some((*line, sym.clone()));
                    continue;
                }
                if let Stmt::Equ(name, expr) = stmt {
                    let value = expr.eval(&symbols).map_err(|m| AsmError::new(*line, m))?;
                    if symbols.insert(name.clone(), value as u32).is_some() {
                        return Err(AsmError::new(*line, format!("duplicate symbol `{name}`")));
                    }
                    continue;
                }
                if let Stmt::Align(n) = stmt {
                    let a = 1u32 << *n;
                    addr = (addr + a - 1) & !(a - 1);
                    continue;
                }
                let size = stmt.size_bytes().map_err(|m| AsmError::new(*line, m))?;
                if stmt.is_instruction() && first_inst.is_none() {
                    first_inst = Some(addr);
                }
                if stmt.is_instruction() && !addr.is_multiple_of(4) {
                    return Err(AsmError::new(
                        *line,
                        format!("instruction at unaligned address {addr:#x}"),
                    ));
                }
                addr = addr.wrapping_add(size);
            }
        }
    }

    // Pass 2: emit bytes.
    let mut segments: Vec<Segment> = Vec::new();
    let mut lines: BTreeMap<u32, u32> = BTreeMap::new();
    let mut cur: Option<Segment> = None;
    let mut addr: u32 = 0;
    let flush = |cur: &mut Option<Segment>, segments: &mut Vec<Segment>| {
        if let Some(seg) = cur.take() {
            if !seg.bytes.is_empty() {
                segments.push(seg);
            }
        }
    };
    for (line, item) in &items {
        let Item::Stmt(stmt) = item else { continue };
        match stmt {
            Stmt::Org(a) => {
                flush(&mut cur, &mut segments);
                addr = *a;
            }
            Stmt::Entry(_) => {}
            Stmt::Align(n) => {
                let a = 1u32 << *n;
                let new = (addr + a - 1) & !(a - 1);
                if let Some(seg) = cur.as_mut() {
                    seg.bytes.resize(seg.bytes.len() + (new - addr) as usize, 0);
                } else if new != addr {
                    cur = Some(Segment {
                        addr,
                        bytes: vec![0; (new - addr) as usize],
                    });
                }
                addr = new;
            }
            _ => {
                let seg = cur.get_or_insert_with(|| Segment {
                    addr,
                    bytes: Vec::new(),
                });
                let insts = stmt
                    .emit(addr, &symbols)
                    .map_err(|m| AsmError::new(*line, m))?;
                match insts {
                    Emitted::Insts(list) => {
                        for inst in list {
                            lines.insert(addr, *line as u32);
                            seg.bytes.extend_from_slice(&encode(inst).to_le_bytes());
                            addr = addr.wrapping_add(4);
                        }
                    }
                    Emitted::Bytes(bytes) => {
                        if !bytes.is_empty() {
                            lines.insert(addr, *line as u32);
                        }
                        addr = addr.wrapping_add(bytes.len() as u32);
                        seg.bytes.extend_from_slice(&bytes);
                    }
                }
            }
        }
    }
    flush(&mut cur, &mut segments);

    let entry = match entry_sym {
        Some((line, sym)) => *symbols
            .get(&sym)
            .ok_or_else(|| AsmError::new(line, format!("undefined entry symbol `{sym}`")))?,
        None => first_inst.unwrap_or(0),
    };

    Ok(Program {
        entry,
        segments,
        symbols,
        labels,
        lines,
    })
}

/// What one statement emits.
pub(crate) enum Emitted {
    Insts(Vec<Instruction>),
    Bytes(Vec<u8>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
    use crate::isa::{Instruction, Reg};

    fn words(prog: &Program) -> Vec<u32> {
        let seg = &prog.segments()[0];
        seg.bytes
            .chunks(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    #[test]
    fn assembles_basic_instructions() {
        let p = assemble(
            r#"
            .org 0x80001000
            addiu $t0, $zero, 5
            addu  $t1, $t0, $t0
            sw    $t1, 8($sp)
            jr    $ra
            nop
        "#,
        )
        .unwrap();
        let w = words(&p);
        assert_eq!(
            decode(w[0]).unwrap(),
            Instruction::Addiu {
                rt: Reg::T0,
                rs: Reg::ZERO,
                imm: 5
            }
        );
        assert_eq!(
            decode(w[2]).unwrap(),
            Instruction::Sw {
                rt: Reg::T1,
                base: Reg::SP,
                imm: 8
            }
        );
        assert_eq!(decode(w[4]).unwrap(), Instruction::NOP);
        assert_eq!(p.entry(), 0x8000_1000);
    }

    #[test]
    fn labels_and_branches_resolve() {
        let p = assemble(
            r#"
            .org 0x80001000
            top:
                bne $t0, $t1, top
                nop
                beq $zero, $zero, done
                nop
            done:
                hcall 0
        "#,
        )
        .unwrap();
        let w = words(&p);
        // bne back to itself: offset -1.
        assert_eq!(
            decode(w[0]).unwrap(),
            Instruction::Bne {
                rs: Reg::T0,
                rt: Reg::T1,
                imm: -1
            }
        );
        // beq forward over one nop: offset +1.
        assert_eq!(
            decode(w[2]).unwrap(),
            Instruction::Beq {
                rs: Reg::ZERO,
                rt: Reg::ZERO,
                imm: 1
            }
        );
        assert_eq!(p.symbol("done"), Some(0x8000_1010));
    }

    #[test]
    fn li_expands_by_operand_size() {
        let p = assemble(
            r#"
            .org 0x80001000
            li $t0, 5          # addiu
            li $t1, -3         # addiu
            li $t2, 0xffff     # ori
            li $t3, 0x12345678 # lui + ori
        "#,
        )
        .unwrap();
        let w = words(&p);
        assert_eq!(w.len(), 5);
        assert_eq!(
            decode(w[3]).unwrap(),
            Instruction::Lui {
                rt: Reg::T3,
                imm: 0x1234
            }
        );
        assert_eq!(
            decode(w[4]).unwrap(),
            Instruction::Ori {
                rt: Reg::T3,
                rs: Reg::T3,
                imm: 0x5678
            }
        );
    }

    #[test]
    fn la_is_always_two_instructions() {
        let p = assemble(
            r#"
            .org 0x80001000
            la $t0, data
            hcall 0
            data: .word 0xdeadbeef
        "#,
        )
        .unwrap();
        let w = words(&p);
        assert_eq!(w.len(), 4);
        assert_eq!(p.symbol("data"), Some(0x8000_100c));
        assert_eq!(
            decode(w[0]).unwrap(),
            Instruction::Lui {
                rt: Reg::T0,
                imm: 0x8000
            }
        );
        assert_eq!(w[3], 0xdead_beef);
    }

    #[test]
    fn data_directives() {
        let p = assemble(
            r#"
            .org 0x80002000
            .word 1, 2
            .half 3, 4
            .byte 5
            .align 2
            .word 6
            s: .asciiz "hi"
        "#,
        )
        .unwrap();
        let seg = &p.segments()[0];
        assert_eq!(&seg.bytes[0..4], &1u32.to_le_bytes());
        assert_eq!(&seg.bytes[8..10], &3u16.to_le_bytes());
        assert_eq!(seg.bytes[12], 5);
        assert_eq!(&seg.bytes[16..20], &6u32.to_le_bytes());
        assert_eq!(&seg.bytes[20..23], b"hi\0");
        assert_eq!(p.symbol("s"), Some(0x8000_2014));
    }

    #[test]
    fn multiple_org_segments() {
        let p = assemble(
            r#"
            .org 0x80000080
            j handler
            nop
            .org 0x80003000
            handler: hcall 1
        "#,
        )
        .unwrap();
        assert_eq!(p.segments().len(), 2);
        assert_eq!(p.segments()[0].addr, 0x8000_0080);
        assert_eq!(p.segments()[1].addr, 0x8000_3000);
    }

    #[test]
    fn entry_directive() {
        let p = assemble(
            r#"
            .org 0x80001000
            .entry main
            helper: nop
            main: hcall 0
        "#,
        )
        .unwrap();
        assert_eq!(p.entry(), 0x8000_1004);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("nop\nbogus $t0\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = assemble("x: nop\nx: nop\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate"));
        let e = assemble("b nowhere\n").unwrap_err();
        assert!(e.message.contains("undefined"), "{e}");
    }

    #[test]
    fn branch_out_of_range_is_an_error() {
        let src = ".org 0x80001000\nb far\n.org 0x80041000\nfar: nop\n".to_string();
        let e = assemble(&src).unwrap_err();
        assert!(e.message.contains("range"), "{e}");
    }

    #[test]
    fn cp0_registers_by_name() {
        let p = assemble(
            r#"
            .org 0x80001000
            mfc0 $k0, $epc
            mtc0 $k0, $uxt
            mfc0 $k1, $14
        "#,
        )
        .unwrap();
        let w = words(&p);
        assert_eq!(
            decode(w[0]).unwrap(),
            Instruction::Mfc0 {
                rt: Reg::K0,
                rd: 14
            }
        );
        assert_eq!(
            decode(w[1]).unwrap(),
            Instruction::Mtc0 {
                rt: Reg::K0,
                rd: 24
            }
        );
        assert_eq!(
            decode(w[2]).unwrap(),
            Instruction::Mfc0 {
                rt: Reg::K1,
                rd: 14
            }
        );
    }

    #[test]
    fn utlbp_and_extension_ops() {
        let p = assemble(
            r#"
            .org 0x80001000
            utlbp $a0, wp
            utlbp $a1, we
            xpcu
            rfe
            tlbwi
        "#,
        )
        .unwrap();
        let w = words(&p);
        assert_eq!(
            decode(w[0]).unwrap(),
            Instruction::Utlbp {
                rs: Reg::A0,
                op: crate::isa::TlbProtOp::WriteProtect
            }
        );
        assert_eq!(decode(w[2]).unwrap(), Instruction::Xpcu);
    }

    #[test]
    fn program_metadata_locates_and_cites_lines() {
        let p = assemble(
            "\
.org 0x80001000
.equ FOUR, 4
start:
    nop
    li $t0, 0x12345678   # expands to two words, one source line
body:
    lw $t1, FOUR($t0)
",
        )
        .unwrap();
        // `.equ` constants are symbols but not code labels.
        assert_eq!(p.symbol("FOUR"), Some(4));
        assert!(p.labels().contains_key("start"));
        assert!(!p.labels().contains_key("FOUR"));
        // label+offset resolution picks the nearest preceding label.
        assert_eq!(p.locate(0x8000_1000), Some(("start", 0)));
        assert_eq!(p.locate(0x8000_1008), Some(("start", 8)));
        assert_eq!(p.locate(0x8000_100c), Some(("body", 0)));
        assert_eq!(p.locate(0x8000_0fff), None);
        // Both words of the li expansion cite the same source line.
        assert_eq!(p.line_at(0x8000_1004), Some(5));
        assert_eq!(p.line_at(0x8000_1008), Some(5));
        assert_eq!(p.line_at(0x8000_100c), Some(7));
        assert_eq!(p.line_at(0x8000_1010), None);
        // Word fetch straddles the emitted image exactly.
        assert_eq!(
            p.word_at(0x8000_1000),
            Some(crate::encode::encode(Instruction::NOP))
        );
        assert_eq!(p.word_at(0x8000_1010), None);
    }

    #[test]
    fn symbol_arithmetic() {
        let p = assemble(
            r#"
            .org 0x80001000
            la $t0, data + 4
            data: .word 1, 2
        "#,
        )
        .unwrap();
        let w = words(&p);
        assert_eq!(
            decode(w[1]).unwrap(),
            Instruction::Ori {
                rt: Reg::T0,
                rs: Reg::T0,
                imm: 0x100c
            }
        );
    }
}

#[cfg(test)]
mod equ_tests {
    use super::*;
    use crate::decode::decode;
    use crate::isa::{Instruction, Reg};

    #[test]
    fn equ_defines_usable_constants() {
        let p = assemble(
            r#"
            .equ COMM, 0x7ffe0000
            .equ FRAME, 32
            .equ BRK_EPC, FRAME * 0 + 288   ; no multiply: use additions
            .org 0x80001000
            lui $k0, 0x7ffe
            lw  $k1, FRAME($k0)
        "#,
        );
        // The line with `*` must fail (no multiplication operator); try the
        // supported additive form instead.
        assert!(p.is_err());
        let p = assemble(
            r#"
            .equ COMM_HI, 0x7ffe
            .equ FRAME, 32
            .equ SLOT, FRAME + 4
            .org 0x80001000
            lui $k0, COMM_HI
            lw  $k1, SLOT($k0)
        "#,
        )
        .unwrap();
        let seg = &p.segments()[0];
        let w1 = u32::from_le_bytes(seg.bytes[0..4].try_into().unwrap());
        let w2 = u32::from_le_bytes(seg.bytes[4..8].try_into().unwrap());
        assert_eq!(
            decode(w1).unwrap(),
            Instruction::Lui {
                rt: Reg::K0,
                imm: 0x7ffe
            }
        );
        assert_eq!(
            decode(w2).unwrap(),
            Instruction::Lw {
                rt: Reg::K1,
                base: Reg::K0,
                imm: 36
            }
        );
        assert_eq!(p.symbol("SLOT"), Some(36));
    }

    #[test]
    fn equ_rejects_duplicates_and_forward_refs() {
        let e = assemble(".equ A, 1\n.equ A, 2\n").unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
        let e = assemble(".equ A, B\n.equ B, 1\n").unwrap_err();
        assert!(e.message.contains("undefined"), "{e}");
    }
}
