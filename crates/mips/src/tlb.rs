//! The translation lookaside buffer.
//!
//! A 64-entry, fully-associative, software-managed, *tagged* TLB in the
//! R3000 style, with one addition from the paper (Section 2.2): a
//! **user-modifiable bit** per entry. When the kernel sets that bit, user
//! code may amplify or restrict the read/write protection of the entry —
//! but never the translation itself — via the `utlbp` instruction. The tag
//! (ASID) ensures a process can only touch its own entries.
//!
//! Fully associative is the architecture, not the implementation: an exact
//! slot index (one occupancy mask per bucket of virtual pages) lets a
//! lookup, a write's duplicate eviction and a page shoot-down visit only
//! the slots that could hold the page, in slot order.

use std::fmt;

/// Number of TLB entries (as in the R3000).
pub const TLB_ENTRIES: usize = 64;

/// Hardware page size: 4 KB, the granularity the paper works against.
pub const PAGE_SIZE: u32 = 4096;

/// Bit positions within the raw `EntryLo` word.
pub mod entry_lo {
    /// Non-cacheable (kept for completeness; the cycle model ignores it).
    pub const N: u32 = 1 << 11;
    /// Dirty — in R3000 terms, "writes permitted".
    pub const D: u32 = 1 << 10;
    /// Valid.
    pub const V: u32 = 1 << 9;
    /// Global — matches regardless of ASID.
    pub const G: u32 = 1 << 8;
    /// efex extension: user-modifiable protection (paper, Section 2.2).
    pub const U: u32 = 1 << 7;
}

/// One TLB entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TlbEntry {
    /// Virtual page number (`vaddr >> 12`).
    pub vpn: u32,
    /// Address-space identifier tag (6 bits).
    pub asid: u8,
    /// Physical frame number.
    pub pfn: u32,
    /// Entry participates in translation.
    pub valid: bool,
    /// Writes permitted.
    pub dirty: bool,
    /// Matches any ASID.
    pub global: bool,
    /// User code may modify this entry's protection bits via `utlbp`.
    pub user_modifiable: bool,
}

impl TlbEntry {
    /// Builds an entry from the raw `EntryHi`/`EntryLo` register pair.
    pub fn from_raw(entry_hi: u32, entry_lo: u32) -> TlbEntry {
        TlbEntry {
            vpn: entry_hi >> 12,
            asid: ((entry_hi >> 6) & 0x3f) as u8,
            pfn: entry_lo >> 12,
            valid: entry_lo & entry_lo::V != 0,
            dirty: entry_lo & entry_lo::D != 0,
            global: entry_lo & entry_lo::G != 0,
            user_modifiable: entry_lo & entry_lo::U != 0,
        }
    }

    /// The raw `EntryHi` register image.
    pub fn entry_hi(&self) -> u32 {
        (self.vpn << 12) | (u32::from(self.asid & 0x3f) << 6)
    }

    /// The raw `EntryLo` register image.
    pub fn entry_lo(&self) -> u32 {
        let mut lo = self.pfn << 12;
        if self.valid {
            lo |= entry_lo::V;
        }
        if self.dirty {
            lo |= entry_lo::D;
        }
        if self.global {
            lo |= entry_lo::G;
        }
        if self.user_modifiable {
            lo |= entry_lo::U;
        }
        lo
    }

    /// Whether the entry translates `vaddr` under `asid`.
    pub fn matches(&self, vaddr: u32, asid: u8) -> bool {
        self.vpn == vaddr >> 12 && (self.global || self.asid == asid)
    }
}

impl fmt::Display for TlbEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vpn={:#07x} asid={} pfn={:#07x}{}{}{}{}",
            self.vpn,
            self.asid,
            self.pfn,
            if self.valid { " V" } else { "" },
            if self.dirty { " D" } else { "" },
            if self.global { " G" } else { "" },
            if self.user_modifiable { " U" } else { "" },
        )
    }
}

/// Why a translation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TlbFault {
    /// No entry matches: a TLB refill is required.
    Miss,
    /// A matching entry exists but is invalid (protect-all, paged out, …).
    Invalid,
    /// A store hit an entry without write permission.
    Modification,
}

impl fmt::Display for TlbFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TlbFault::Miss => "TLB miss",
            TlbFault::Invalid => "TLB invalid",
            TlbFault::Modification => "TLB modification",
        };
        f.write_str(s)
    }
}

/// The TLB proper.
///
/// Slots are either empty or hold a [`TlbEntry`]; an *empty* slot never
/// matches any address (unlike an entry with the valid bit clear, which
/// matches and faults with [`TlbFault::Invalid`] — that distinction is what
/// makes protect-all pages work).
///
/// Lookups do not scan the slots. An exact index keeps, per bucket of
/// virtual pages, the mask of occupied slots whose entry lies in that
/// bucket; a lookup walks only its page's bucket, lowest slot first, so it
/// finds the same first match a linear scan would.
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: [Option<TlbEntry>; TLB_ENTRIES],
    /// Bit `s` of `buckets[b]` is set exactly when slot `s` holds an entry
    /// whose VPN falls in bucket `b` (see [`bucket`]).
    buckets: [u64; BUCKETS],
    /// Bumped by every mutating operation. Consumers that cache derived
    /// translation state compare this to detect TLB writes, evictions,
    /// flushes, and protection changes: the superblock cache in
    /// `machine.rs`, whose blocks re-translate their start address and are
    /// retagged when the translation still lands on the same physical
    /// page, and the machine's data-translation cache, whose lines serve
    /// loads and stores only at the generation they were filled at.
    /// Checkpoints carry it, so a restored run's cache tags evolve
    /// exactly as the uninterrupted run's; [`Tlb::restore`] can therefore
    /// set it back, and `Machine::restore` empties both caches.
    generation: u64,
}

/// Buckets of the slot index, keyed by the low bits of the VPN.
const BUCKETS: usize = 64;

/// The slot-index bucket of a virtual page number.
fn bucket(vpn: u32) -> usize {
    vpn as usize % BUCKETS
}

/// The slots set in `mask`, lowest first.
fn slots_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let slot = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            slot
        })
    })
}

/// The protection bits of one resident entry, open for an edit that
/// cannot touch its translation (the `utlbp` instruction's view).
#[derive(Debug)]
pub struct ProtectionMut<'a>(&'a mut TlbEntry);

impl ProtectionMut<'_> {
    /// The entry being edited, read-only.
    pub fn entry(&self) -> &TlbEntry {
        self.0
    }

    /// Sets the valid bit (clear = protect-all).
    pub fn set_valid(&mut self, valid: bool) {
        self.0.valid = valid;
    }

    /// Sets the dirty bit (clear = write-protect).
    pub fn set_dirty(&mut self, dirty: bool) {
        self.0.dirty = dirty;
    }
}

impl Default for Tlb {
    fn default() -> Tlb {
        Tlb::new()
    }
}

impl Tlb {
    /// An empty TLB (all slots empty).
    pub fn new() -> Tlb {
        Tlb {
            entries: [None; TLB_ENTRIES],
            buckets: [0; BUCKETS],
            generation: 0,
        }
    }

    /// Mutation counter: changes whenever any entry may have changed.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Translates `vaddr` for `asid`, checking write permission when
    /// `is_write`.
    ///
    /// # Errors
    ///
    /// Returns the appropriate [`TlbFault`] when no usable translation
    /// exists.
    pub fn translate(&self, vaddr: u32, asid: u8, is_write: bool) -> Result<u32, TlbFault> {
        let (_, entry) = self.first_match(vaddr, asid).ok_or(TlbFault::Miss)?;
        if !entry.valid {
            return Err(TlbFault::Invalid);
        }
        if is_write && !entry.dirty {
            return Err(TlbFault::Modification);
        }
        Ok((entry.pfn << 12) | (vaddr & (PAGE_SIZE - 1)))
    }

    /// Finds the index of the first (lowest) entry matching `vaddr`/`asid`,
    /// if any (the `tlbp` probe).
    pub fn probe(&self, vaddr: u32, asid: u8) -> Option<usize> {
        self.first_match(vaddr, asid).map(|(slot, _)| slot)
    }

    /// The lowest slot matching `vaddr`/`asid` and its entry: a walk of
    /// the page's bucket only.
    fn first_match(&self, vaddr: u32, asid: u8) -> Option<(usize, &TlbEntry)> {
        slots_of(self.buckets[bucket(vaddr >> 12)]).find_map(|slot| {
            self.entries[slot]
                .as_ref()
                .filter(|e| e.matches(vaddr, asid))
                .map(|e| (slot, e))
        })
    }

    /// Reads the entry at `index`; empty slots read as an all-zero entry,
    /// as `tlbr` of an unwritten slot does on real hardware.
    ///
    /// # Panics
    ///
    /// Panics if `index >= TLB_ENTRIES`.
    pub fn read(&self, index: usize) -> TlbEntry {
        self.entries[index].unwrap_or_default()
    }

    /// Empties `slot` in the entries and the index alike.
    fn vacate(&mut self, slot: usize) {
        if let Some(e) = self.entries[slot].take() {
            self.buckets[bucket(e.vpn)] &= !(1 << slot);
        }
    }

    /// Writes the entry at `index`, evicting any other entry that would
    /// create a duplicate match (real hardware shuts down on duplicates; we
    /// keep the machine deterministic instead).
    ///
    /// # Panics
    ///
    /// Panics if `index >= TLB_ENTRIES`.
    pub fn write(&mut self, index: usize, entry: TlbEntry) {
        self.generation = self.generation.wrapping_add(1);
        self.vacate(index);
        let b = bucket(entry.vpn);
        for slot in slots_of(self.buckets[b]) {
            if self.entries[slot].is_some_and(|e| {
                e.vpn == entry.vpn && (e.global || entry.global || e.asid == entry.asid)
            }) {
                self.vacate(slot);
            }
        }
        self.entries[index] = Some(entry);
        self.buckets[b] |= 1 << index;
    }

    /// Empties the slot at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= TLB_ENTRIES`.
    pub fn clear(&mut self, index: usize) {
        self.generation = self.generation.wrapping_add(1);
        self.vacate(index);
    }

    /// Empties every slot (full flush).
    pub fn flush(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        self.entries = [None; TLB_ENTRIES];
        self.buckets = [0; BUCKETS];
    }

    /// Empties all slots belonging to one address space.
    pub fn flush_asid(&mut self, asid: u8) {
        self.generation = self.generation.wrapping_add(1);
        for slot in 0..TLB_ENTRIES {
            if self.entries[slot].is_some_and(|e| !e.global && e.asid == asid) {
                self.vacate(slot);
            }
        }
    }

    /// Empties any slot translating `vaddr` for `asid` (kernel page
    /// protection changes must shoot the stale mapping down).
    pub fn invalidate_page(&mut self, vaddr: u32, asid: u8) {
        self.generation = self.generation.wrapping_add(1);
        for slot in slots_of(self.buckets[bucket(vaddr >> 12)]) {
            if self.entries[slot].is_some_and(|e| e.matches(vaddr, asid)) {
                self.vacate(slot);
            }
        }
    }

    /// The protection bits of the entry matching `vaddr`/`asid`, for the
    /// `utlbp` implementation. The generation bumps whether or not an entry
    /// matches, since the caller may rewrite the bits it is handed.
    pub fn protection_mut(&mut self, vaddr: u32, asid: u8) -> Option<ProtectionMut<'_>> {
        self.generation = self.generation.wrapping_add(1);
        let slot = self.probe(vaddr, asid)?;
        self.entries[slot].as_mut().map(ProtectionMut)
    }

    /// Iterates over all occupied entries.
    pub fn iter(&self) -> impl Iterator<Item = &TlbEntry> {
        self.entries.iter().flatten()
    }

    /// The raw slot array, empty slots included. [`Tlb::read`] deliberately
    /// collapses an empty slot and an all-zero entry into the same value
    /// (matching `tlbr` of an unwritten slot); checkpointing must preserve
    /// the distinction, because a restored all-zero *entry* would match
    /// VPN 0 where an empty slot matches nothing.
    pub fn slots(&self) -> &[Option<TlbEntry>; TLB_ENTRIES] {
        &self.entries
    }

    /// Replaces the entire TLB — slots *and* generation counter — with
    /// checkpointed state. Unlike [`Tlb::write`] this performs no duplicate
    /// eviction (the snapshot came from a TLB that already enforced it, and
    /// lookups keep first-match order over duplicates anyway) and sets the
    /// generation exactly, so a restored run's translation-cache tags evolve
    /// identically to the uninterrupted run it forked from. The slot index
    /// is rebuilt from the slots.
    pub fn restore(&mut self, slots: [Option<TlbEntry>; TLB_ENTRIES], generation: u64) {
        self.entries = slots;
        self.generation = generation;
        self.buckets = [0; BUCKETS];
        for (slot, e) in self.entries.iter().enumerate() {
            if let Some(e) = e {
                self.buckets[bucket(e.vpn)] |= 1 << slot;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(vpn: u32, asid: u8, pfn: u32) -> TlbEntry {
        TlbEntry {
            vpn,
            asid,
            pfn,
            valid: true,
            dirty: true,
            global: false,
            user_modifiable: false,
        }
    }

    #[test]
    fn raw_round_trip() {
        let e = TlbEntry {
            vpn: 0x12345,
            asid: 0x2a,
            pfn: 0x00abc,
            valid: true,
            dirty: false,
            global: true,
            user_modifiable: true,
        };
        assert_eq!(TlbEntry::from_raw(e.entry_hi(), e.entry_lo()), e);
    }

    #[test]
    fn translate_hits_and_misses() {
        let mut tlb = Tlb::new();
        tlb.write(0, entry(0x00400, 1, 0x00080));
        assert_eq!(tlb.translate(0x0040_0123, 1, false), Ok(0x0008_0123));
        assert_eq!(tlb.translate(0x0040_1000, 1, false), Err(TlbFault::Miss));
        assert_eq!(tlb.translate(0x0040_0123, 2, false), Err(TlbFault::Miss));
    }

    #[test]
    fn global_entries_ignore_asid() {
        let mut tlb = Tlb::new();
        let mut e = entry(0x00400, 1, 0x00080);
        e.global = true;
        tlb.write(0, e);
        assert!(tlb.translate(0x0040_0000, 63, false).is_ok());
    }

    #[test]
    fn write_protection_faults_stores_only() {
        let mut tlb = Tlb::new();
        let mut e = entry(0x00400, 1, 0x00080);
        e.dirty = false;
        tlb.write(0, e);
        assert!(tlb.translate(0x0040_0000, 1, false).is_ok());
        assert_eq!(
            tlb.translate(0x0040_0000, 1, true),
            Err(TlbFault::Modification)
        );
    }

    #[test]
    fn invalid_entries_fault_loads_too() {
        let mut tlb = Tlb::new();
        let mut e = entry(0x00400, 1, 0x00080);
        e.valid = false;
        tlb.write(0, e);
        assert_eq!(tlb.translate(0x0040_0000, 1, false), Err(TlbFault::Invalid));
    }

    #[test]
    fn duplicate_writes_keep_translation_unique() {
        let mut tlb = Tlb::new();
        tlb.write(0, entry(0x00400, 1, 0x00080));
        tlb.write(1, entry(0x00400, 1, 0x00090));
        // The newer entry wins; the older was invalidated.
        assert_eq!(tlb.translate(0x0040_0000, 1, false), Ok(0x0009_0000));
        assert_eq!(tlb.probe(0x0040_0000, 1), Some(1));
    }

    #[test]
    fn same_vpn_different_asid_may_coexist() {
        let mut tlb = Tlb::new();
        tlb.write(0, entry(0x00400, 1, 0x00080));
        tlb.write(1, entry(0x00400, 2, 0x00090));
        assert_eq!(tlb.translate(0x0040_0000, 1, false), Ok(0x0008_0000));
        assert_eq!(tlb.translate(0x0040_0000, 2, false), Ok(0x0009_0000));
    }

    #[test]
    fn flush_asid_spares_globals_and_other_spaces() {
        let mut tlb = Tlb::new();
        tlb.write(0, entry(0x00400, 1, 0x00080));
        tlb.write(1, entry(0x00500, 2, 0x00090));
        let mut g = entry(0x00600, 1, 0x000a0);
        g.global = true;
        tlb.write(2, g);
        tlb.flush_asid(1);
        assert_eq!(tlb.translate(0x0040_0000, 1, false), Err(TlbFault::Miss));
        assert!(tlb.translate(0x0050_0000, 2, false).is_ok());
        assert!(tlb.translate(0x0060_0000, 1, false).is_ok());
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let mut tlb = Tlb::new();
        let g0 = tlb.generation();
        tlb.write(0, entry(0x00400, 1, 0x00080));
        let g1 = tlb.generation();
        assert_ne!(g0, g1);
        tlb.translate(0x0040_0000, 1, false).unwrap();
        tlb.probe(0x0040_0000, 1);
        assert_eq!(tlb.generation(), g1, "reads must not bump");
        tlb.protection_mut(0x0040_0000, 1).unwrap().set_dirty(false);
        let g2 = tlb.generation();
        assert_ne!(g1, g2, "protection edits through protection_mut bump");
        tlb.invalidate_page(0x0040_0000, 1);
        let g3 = tlb.generation();
        assert_ne!(g2, g3);
        tlb.flush();
        assert_ne!(g3, tlb.generation());
    }

    #[test]
    fn invalidate_page_shoots_down_mapping() {
        let mut tlb = Tlb::new();
        tlb.write(0, entry(0x00400, 1, 0x00080));
        tlb.invalidate_page(0x0040_0ff0, 1);
        assert_eq!(tlb.translate(0x0040_0000, 1, false), Err(TlbFault::Miss));
    }
}
