//! The TLB's slot index must be invisible: after any sequence of writes,
//! clears, flushes, page shoot-downs, `utlbp`-style protection edits and
//! checkpoint restores, the slots equal those of a reference TLB that
//! scans all of them linearly, and every probe and translation equals a
//! first-match scan — same slot, same hit, same fault.

use efex_mips::tlb::{Tlb, TlbEntry, TlbFault, TLB_ENTRIES};
use proptest::prelude::*;

/// Pages under test. 0x400, 0x440 and 0x500 share a bucket of the slot
/// index (it is keyed by the low VPN bits), so one bucket holds entries for
/// several pages.
const VPNS: [u32; 5] = [0x400, 0x440, 0x408, 0x401, 0x500];
/// Address spaces under test.
const ASIDS: [u8; 3] = [1, 2, 3];
/// Slots the ops touch: few enough that entries collide and evict.
const SLOTS: u32 = 8;

type Slots = [Option<TlbEntry>; TLB_ENTRIES];

/// The reference TLB: the linear-scan `write`, `invalidate_page` and
/// `flush_asid` the slot index replaced, over bare slots.
#[derive(Clone, Copy)]
struct Reference {
    slots: Slots,
}

impl Reference {
    fn write(&mut self, index: usize, entry: TlbEntry) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if i == index {
                continue;
            }
            if let Some(e) = slot {
                if e.vpn == entry.vpn && (e.global || entry.global || e.asid == entry.asid) {
                    *slot = None;
                }
            }
        }
        self.slots[index] = Some(entry);
    }

    fn flush_asid(&mut self, asid: u8) {
        for slot in &mut self.slots {
            if slot.is_some_and(|e| !e.global && e.asid == asid) {
                *slot = None;
            }
        }
    }

    fn invalidate_page(&mut self, vaddr: u32, asid: u8) {
        for slot in &mut self.slots {
            if slot.is_some_and(|e| e.matches(vaddr, asid)) {
                *slot = None;
            }
        }
    }

    /// The first matching entry, as `utlbp` edits it.
    fn entry_matching_mut(&mut self, vaddr: u32, asid: u8) -> Option<&mut TlbEntry> {
        self.slots
            .iter_mut()
            .flatten()
            .find(|e| e.matches(vaddr, asid))
    }

    /// The `tlbp` probe: the first matching slot.
    fn position(&self, vaddr: u32, asid: u8) -> Option<usize> {
        self.slots
            .iter()
            .position(|e| e.is_some_and(|e| e.matches(vaddr, asid)))
    }

    /// A first-match translation.
    fn translate(&self, vaddr: u32, asid: u8, is_write: bool) -> Result<u32, TlbFault> {
        let e = self
            .slots
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
}

/// An entry whose every field comes from `bits`.
fn entry(bits: u32) -> TlbEntry {
    TlbEntry {
        vpn: VPNS[bits as usize % VPNS.len()],
        asid: ASIDS[((bits >> 3) % 3) as usize],
        pfn: (bits >> 8) & 0xff,
        valid: bits & 1 << 5 != 0,
        dirty: bits & 1 << 6 != 0,
        // Rarer than not, so per-ASID entries dominate.
        global: (bits >> 7).is_multiple_of(4),
        user_modifiable: true,
    }
}

/// Checks the slots, then every page under every ASID: probes, loads and
/// stores alike.
fn check_all(tlb: &Tlb, model: &Reference, step: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(tlb.slots(), &model.slots, "step {}: slots", step);
    for vpn in VPNS {
        for asid in ASIDS {
            let vaddr = (vpn << 12) | 0x2a4;
            prop_assert_eq!(
                tlb.probe(vaddr, asid),
                model.position(vaddr, asid),
                "step {}: probe vpn {:#x} asid {}",
                step,
                vpn,
                asid
            );
            for is_write in [false, true] {
                prop_assert_eq!(
                    tlb.translate(vaddr, asid, is_write),
                    model.translate(vaddr, asid, is_write),
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
    fn indexed_lookup_equals_a_linear_scan(
        ops in proptest::collection::vec((0u8..8, any::<u32>()), 1..160),
    ) {
        let mut tlb = Tlb::new();
        let mut model = Reference { slots: [None; TLB_ENTRIES] };
        // Every state the TLB has been in: restores rewind to one of these
        // slot sets, under any generation seen so far.
        let mut history: Vec<(Slots, u64)> = vec![(*tlb.slots(), tlb.generation())];
        for (step, &(kind, bits)) in ops.iter().enumerate() {
            let vpn = VPNS[bits as usize % VPNS.len()];
            let asid = ASIDS[((bits >> 3) % 3) as usize];
            match kind {
                0 | 1 => {
                    let index = (bits >> 16) as usize % SLOTS as usize;
                    tlb.write(index, entry(bits));
                    model.write(index, entry(bits));
                }
                2 => {
                    let index = (bits >> 16) as usize % SLOTS as usize;
                    tlb.clear(index);
                    model.slots[index] = None;
                }
                3 => {
                    tlb.flush_asid(asid);
                    model.flush_asid(asid);
                }
                4 => {
                    tlb.invalidate_page(vpn << 12, asid);
                    model.invalidate_page(vpn << 12, asid);
                }
                5 => {
                    // The hand-out bumps the generation, match or not.
                    let before = tlb.generation();
                    let (valid, dirty) = (bits & 1 << 9 != 0, bits & 1 << 10 != 0);
                    if let Some(mut prot) = tlb.protection_mut(vpn << 12, asid) {
                        prot.set_valid(valid);
                        prot.set_dirty(dirty);
                    }
                    if let Some(e) = model.entry_matching_mut(vpn << 12, asid) {
                        e.valid = valid;
                        e.dirty = dirty;
                    }
                    prop_assert_ne!(tlb.generation(), before);
                }
                6 => {
                    if bits.is_multiple_of(8) {
                        tlb.flush();
                        model.slots = [None; TLB_ENTRIES];
                    } else {
                        // A lookup on its own must change nothing.
                        let _ = tlb.translate(vpn << 12, asid, bits & 1 << 8 != 0);
                    }
                }
                _ => {
                    // Rewind to earlier slots under an earlier generation,
                    // usually not the one they were captured at. Sometimes
                    // the slots are synthesized and hold duplicate matches,
                    // where only the first may translate.
                    let generation = history[(bits >> 8) as usize % history.len()].1;
                    let slots = if bits & 1 << 30 != 0 {
                        let mut slots: Slots = [None; TLB_ENTRIES];
                        for (i, slot) in slots.iter_mut().take(SLOTS as usize).enumerate() {
                            let b = bits.rotate_left(5 * i as u32);
                            if b & 1 << 31 != 0 {
                                *slot = Some(entry(b));
                            }
                        }
                        slots
                    } else {
                        history[(bits >> 16) as usize % history.len()].0
                    };
                    tlb.restore(slots, generation);
                    model.slots = slots;
                    prop_assert_eq!(tlb.generation(), generation);
                }
            }
            check_all(&tlb, &model, step)?;
            history.push((*tlb.slots(), tlb.generation()));
        }
    }
}

/// The stale-lookup trap, deterministically: a lookup made at generation
/// `g` must not answer after a restore to `g` over different slots.
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

/// Pages sharing an index bucket stay apart: a write or shoot-down of one
/// leaves the other's entry, and a probe finds each in its own slot.
#[test]
fn pages_sharing_a_bucket_stay_apart() {
    let mapping = |vpn, pfn| TlbEntry {
        vpn,
        asid: 1,
        pfn,
        valid: true,
        dirty: true,
        global: false,
        user_modifiable: false,
    };
    let mut tlb = Tlb::new();
    tlb.write(9, mapping(0x440, 0x90));
    tlb.write(3, mapping(0x400, 0x80));
    assert_eq!(tlb.probe(0x0040_0000, 1), Some(3));
    assert_eq!(tlb.probe(0x0044_0000, 1), Some(9));
    tlb.invalidate_page(0x0040_0000, 1);
    assert_eq!(tlb.probe(0x0040_0000, 1), None);
    assert_eq!(tlb.translate(0x0044_0010, 1, false), Ok(0x0009_0010));
    // Rewriting slot 9 with the other page moves it between pages.
    tlb.write(9, mapping(0x400, 0xa0));
    assert_eq!(tlb.probe(0x0044_0000, 1), None);
    assert_eq!(tlb.translate(0x0040_0010, 1, false), Ok(0x000a_0010));
}
