//! Disassemble → reassemble round trips.
//!
//! `disassemble_at` (without a symbol table) must produce text the
//! assembler accepts back to the *same instruction* at the same address —
//! this is what makes lint diagnostics and trace listings trustworthy: the
//! text shown is exactly the code analyzed.

use efex_mips::asm::assemble;
use efex_mips::decode::decode;
use efex_mips::disasm::disassemble_at;
use efex_mips::encode::encode;
use proptest::prelude::*;

mod common;
use common::arb_instruction;

/// Address the round trip reassembles at: any word-aligned KSEG0 address
/// works; branch targets become absolute numbers relative to it.
const ADDR: u32 = 0x8000_4000;

/// Reassembles `text` at `ADDR` and returns the single resulting word.
fn reassemble(text: &str) -> Result<u32, String> {
    let src = format!(".org {ADDR:#x}\n{text}\n");
    let prog = assemble(&src).map_err(|e| e.to_string())?;
    prog.word_at(ADDR)
        .ok_or_else(|| "no word assembled".to_string())
}

proptest! {
    /// For every canonical instruction: the address-resolved disassembly
    /// reassembles (at the same address) to the identical instruction.
    #[test]
    fn disasm_reassembles_to_same_instruction(inst in arb_instruction()) {
        let text = disassemble_at(inst, ADDR, None);
        let word = reassemble(&text)
            .unwrap_or_else(|e| panic!("`{text}` does not reassemble: {e}"));
        prop_assert_eq!(
            decode(word).unwrap(),
            inst,
            "`{}` round-tripped to a different instruction",
            text
        );
    }

    /// The stronger, byte-exact form for canonical encodings: any decodable
    /// canonical word survives disassemble → reassemble bit-for-bit.
    #[test]
    fn disasm_reassembles_to_same_word(inst in arb_instruction()) {
        let word = encode(inst);
        let text = disassemble_at(decode(word).unwrap(), ADDR, None);
        prop_assert_eq!(
            reassemble(&text),
            Ok(word),
            "`{}` did not round-trip bit-exactly",
            text
        );
    }
}
