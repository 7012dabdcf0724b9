//! The TLB's lookup hints must be invisible: after any sequence of writes,
//! clears, flushes, page shoot-downs, `utlbp`-style protection edits and
//! checkpoint restores, every translation equals a first-match linear scan
//! of the slots — same hit, same fault.

use efex_mips::tlb::{Tlb, TlbEntry, TlbFault, TLB_ENTRIES};
use proptest::prelude::*;

/// Pages under test. 0x400 and 0x408 share a hint (the table is indexed by
/// the low VPN bits), so hints for one are overwritten by the other.
const VPNS: [u32; 4] = [0x400, 0x408, 0x401, 0x500];
/// Address spaces under test.
const ASIDS: [u8; 3] = [1, 2, 3];
/// Slots the ops touch: few enough that entries collide and evict.
const SLOTS: u32 = 8;

type Slots = [Option<TlbEntry>; TLB_ENTRIES];

/// The reference: a first-match scan of the raw slots.
fn scan(slots: &Slots, vaddr: u32, asid: u8, is_write: bool) -> Result<u32, TlbFault> {
    let e = slots
        .iter()
        .flatten()
        .find(|e| e.matches(vaddr, asid))
        .ok_or(TlbFault::Miss)?;
    if !e.valid {
        return Err(TlbFault::Invalid);
    }
    if is_write && !e.dirty {
        return Err(TlbFault::Modification);
    }
    Ok((e.pfn << 12) | (vaddr & 0xfff))
}

/// An entry whose every field comes from `bits`.
fn entry(bits: u32) -> TlbEntry {
    TlbEntry {
        vpn: VPNS[(bits % 4) as usize],
        asid: ASIDS[((bits >> 2) % 3) as usize],
        pfn: (bits >> 8) & 0xff,
        valid: bits & 1 << 4 != 0,
        dirty: bits & 1 << 5 != 0,
        // Rarer than not, so per-ASID entries dominate.
        global: (bits >> 6).is_multiple_of(4),
        user_modifiable: true,
    }
}

/// Checks every page under every ASID, loads and stores alike.
fn check_all(tlb: &Tlb, step: usize) -> Result<(), TestCaseError> {
    for vpn in VPNS {
        for asid in ASIDS {
            for is_write in [false, true] {
                let vaddr = (vpn << 12) | 0x2a4;
                prop_assert_eq!(
                    tlb.translate(vaddr, asid, is_write),
                    scan(tlb.slots(), vaddr, asid, is_write),
                    "step {}: vpn {:#x} asid {} write {}",
                    step,
                    vpn,
                    asid,
                    is_write
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn hinted_lookup_equals_a_linear_scan(
        ops in proptest::collection::vec((0u8..8, any::<u32>()), 1..160),
    ) {
        let mut tlb = Tlb::new();
        // Every state the TLB has been in: restores rewind to one of these
        // slot sets, under any generation seen so far.
        let mut history: Vec<(Slots, u64)> = vec![(*tlb.slots(), tlb.generation())];
        for (step, &(kind, bits)) in ops.iter().enumerate() {
            let vpn = VPNS[(bits % 4) as usize];
            let asid = ASIDS[((bits >> 2) % 3) as usize];
            match kind {
                0 | 1 => tlb.write((bits >> 16) as usize % SLOTS as usize, entry(bits)),
                2 => tlb.clear((bits >> 16) as usize % SLOTS as usize),
                3 => tlb.flush_asid(asid),
                4 => tlb.invalidate_page(vpn << 12, asid),
                5 => {
                    if let Some(e) = tlb.entry_matching_mut(vpn << 12, asid) {
                        match (bits >> 4) % 4 {
                            0 => e.dirty = false,
                            1 => e.dirty = true,
                            2 => e.valid = false,
                            _ => e.valid = true,
                        }
                    }
                }
                6 => {
                    if bits.is_multiple_of(8) {
                        tlb.flush();
                    } else {
                        // A lookup on its own, which may install a hint.
                        let _ = tlb.translate(vpn << 12, asid, bits & 1 << 8 != 0);
                    }
                }
                _ => {
                    // Rewind to earlier slots under an earlier generation,
                    // usually not the one they were captured at: a hint
                    // keyed by that generation must not survive. Sometimes
                    // the slots are synthesized and hold duplicate matches,
                    // where only the first may translate.
                    let generation = history[(bits >> 8) as usize % history.len()].1;
                    let slots = if bits & 1 << 30 != 0 {
                        let mut slots: Slots = [None; TLB_ENTRIES];
                        for (i, slot) in slots.iter_mut().take(SLOTS as usize).enumerate() {
                            let b = bits.rotate_left(5 * i as u32);
                            if b & 1 << 7 != 0 {
                                *slot = Some(entry(b));
                            }
                        }
                        slots
                    } else {
                        history[(bits >> 16) as usize % history.len()].0
                    };
                    tlb.restore(slots, generation);
                }
            }
            check_all(&tlb, step)?;
            history.push((*tlb.slots(), tlb.generation()));
        }
    }
}

/// The stale-hint trap, deterministically: a hint made at generation `g`
/// must not answer after a restore to `g` over different slots.
#[test]
fn restore_to_a_hinted_generation_forgets_the_hint() {
    let mapping = |pfn| TlbEntry {
        vpn: 0x400,
        asid: 1,
        pfn,
        valid: true,
        dirty: true,
        global: false,
        user_modifiable: false,
    };
    let mut tlb = Tlb::new();
    tlb.write(0, mapping(0x80));
    let g = tlb.generation();
    assert_eq!(tlb.translate(0x0040_0123, 1, false), Ok(0x0008_0123));
    let mut slots = [None; TLB_ENTRIES];
    slots[5] = Some(mapping(0x90));
    tlb.restore(slots, g);
    assert_eq!(tlb.translate(0x0040_0123, 1, false), Ok(0x0009_0123));
    tlb.restore([None; TLB_ENTRIES], g);
    assert_eq!(tlb.translate(0x0040_0123, 1, false), Err(TlbFault::Miss));
}
