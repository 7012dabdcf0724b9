//! Per-process virtual memory: page tables, protection, demand paging.
//!
//! An [`AddressSpace`] is the kernel's authoritative map from virtual page
//! numbers to [`Pte`]s; the hardware TLB is a cache of it. Protection
//! changes therefore come with a TLB shootdown, which the kernel performs
//! (see [`crate::kernel`]).

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use crate::frames::{FrameAllocator, OutOfFrames, Pfn};
use crate::layout::{PAGE_SIZE, USER_SPACE_END};
use efex_mips::tlb::TlbEntry;

/// Page protection.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Prot {
    /// No access: any reference faults (the "protect-all" mode used for
    /// access detection).
    None,
    /// Read-only: stores fault (the write-barrier mode).
    Read,
    /// Full access.
    ReadWrite,
}

impl Prot {
    /// Whether a read access is permitted.
    pub fn allows_read(self) -> bool {
        self != Prot::None
    }

    /// Whether a write access is permitted.
    pub fn allows_write(self) -> bool {
        self == Prot::ReadWrite
    }
}

impl fmt::Display for Prot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Prot::None => "---",
            Prot::Read => "r--",
            Prot::ReadWrite => "rw-",
        })
    }
}

/// A page-table entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pte {
    /// The physical frame, when resident.
    pub pfn: Option<Pfn>,
    /// Current protection.
    pub prot: Prot,
    /// The paper's user-modifiable TLB protection bit is granted per page.
    pub user_modifiable: bool,
    /// Pinned pages are never evicted (exception handlers, comm page).
    pub pinned: bool,
    /// Page has been written since mapping (for paging policy/statistics).
    pub dirty: bool,
}

impl Pte {
    fn new(prot: Prot) -> Pte {
        Pte {
            pfn: None,
            prot,
            user_modifiable: false,
            pinned: false,
            dirty: false,
        }
    }

    /// Whether the page is resident in a physical frame.
    pub fn resident(&self) -> bool {
        self.pfn.is_some()
    }
}

/// Why a reference to a mapped-or-not address cannot proceed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The address is not part of the address space (true SIGSEGV).
    NotMapped,
    /// The page is mapped but the access violates its protection — the
    /// access-detection fault the paper's applications rely on.
    Protection,
    /// The page is mapped and accessible but not resident: a page fault,
    /// always handled by the kernel (Section 3.2.2).
    NotResident,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::NotMapped => "not mapped",
            FaultKind::Protection => "protection violation",
            FaultKind::NotResident => "page not resident",
        })
    }
}

/// A region passed to [`AddressSpace::map_region`] does not page-align or
/// overlaps an existing mapping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MapError {
    /// Address or length not page-aligned.
    Unaligned,
    /// A page in the range is already mapped.
    Overlap(u32),
    /// A page in the range is not mapped (for protect/unmap).
    NotMapped(u32),
    /// Out of physical frames.
    OutOfFrames,
    /// The region starting at this address wraps or ends past user space.
    OutsideUserSpace(u32),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Unaligned => f.write_str("address or length not page-aligned"),
            MapError::Overlap(v) => write!(f, "page {v:#x} already mapped"),
            MapError::NotMapped(v) => write!(f, "page {v:#x} not mapped"),
            MapError::OutOfFrames => f.write_str("out of physical frames"),
            MapError::OutsideUserSpace(v) => write!(f, "region at {v:#x} leaves user space"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<OutOfFrames> for MapError {
    fn from(_: OutOfFrames) -> MapError {
        MapError::OutOfFrames
    }
}

/// Consecutive virtual pages touched by a protection change, iterated as
/// page base addresses, ascending.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PageRange {
    vpns: Range<u32>,
}

impl PageRange {
    /// The pages `vpns`.
    pub(crate) fn new(vpns: Range<u32>) -> PageRange {
        PageRange { vpns }
    }

    /// The pages of `[vaddr, vaddr+len)`.
    ///
    /// # Errors
    ///
    /// Fails unless both are page-aligned and `len` is non-zero.
    fn aligned(vaddr: u32, len: u32) -> Result<PageRange, MapError> {
        if !vaddr.is_multiple_of(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) || len == 0 {
            return Err(MapError::Unaligned);
        }
        let first = vaddr / PAGE_SIZE;
        Ok(PageRange::new(first..first + len / PAGE_SIZE))
    }
}

impl Iterator for PageRange {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        self.vpns.next().map(|vpn| vpn * PAGE_SIZE)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.vpns.size_hint()
    }
}

impl ExactSizeIterator for PageRange {}

/// One process's page table.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    asid: u8,
    pages: BTreeMap<u32, Pte>,
}

impl AddressSpace {
    /// An empty address space tagged with `asid`.
    pub fn new(asid: u8) -> AddressSpace {
        AddressSpace {
            asid,
            pages: BTreeMap::new(),
        }
    }

    /// The ASID that tags this space's TLB entries.
    pub fn asid(&self) -> u8 {
        self.asid
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    /// The PTE for a virtual address, if mapped.
    pub fn pte(&self, vaddr: u32) -> Option<&Pte> {
        self.pages.get(&(vaddr / PAGE_SIZE))
    }

    /// Mutable PTE for a virtual address.
    pub fn pte_mut(&mut self, vaddr: u32) -> Option<&mut Pte> {
        self.pages.get_mut(&(vaddr / PAGE_SIZE))
    }

    /// Installs a checkpointed PTE for virtual page `vpn`, bypassing the
    /// mapping API's overlap/alignment policy (the snapshot came from a
    /// space that already enforced it). Restore-time only: no frame is
    /// allocated and no TLB entry is touched.
    pub fn restore_page(&mut self, vpn: u32, pte: Pte) {
        self.pages.insert(vpn, pte);
    }

    /// Maps `[vaddr, vaddr+len)` with `prot`, demand-zero (frames are
    /// allocated on first touch).
    ///
    /// # Errors
    ///
    /// Fails on misalignment, on a region that wraps or ends past
    /// [`USER_SPACE_END`], or on overlap with an existing mapping.
    pub fn map_region(&mut self, vaddr: u32, len: u32, prot: Prot) -> Result<(), MapError> {
        if !vaddr.is_multiple_of(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) || len == 0 {
            return Err(MapError::Unaligned);
        }
        if vaddr
            .checked_add(len)
            .is_none_or(|end| end > USER_SPACE_END)
        {
            return Err(MapError::OutsideUserSpace(vaddr));
        }
        let first = vaddr / PAGE_SIZE;
        let count = len / PAGE_SIZE;
        for vpn in first..first + count {
            if self.pages.contains_key(&vpn) {
                return Err(MapError::Overlap(vpn));
            }
        }
        for vpn in first..first + count {
            self.pages.insert(vpn, Pte::new(prot));
        }
        Ok(())
    }

    /// Unmaps `[vaddr, vaddr+len)`, returning the freed frames.
    ///
    /// # Errors
    ///
    /// Fails on misalignment or if any page is unmapped.
    pub fn unmap_region(&mut self, vaddr: u32, len: u32) -> Result<Vec<Pfn>, MapError> {
        if !vaddr.is_multiple_of(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) || len == 0 {
            return Err(MapError::Unaligned);
        }
        let first = vaddr / PAGE_SIZE;
        let count = len / PAGE_SIZE;
        for vpn in first..first + count {
            if !self.pages.contains_key(&vpn) {
                return Err(MapError::NotMapped(vpn));
            }
        }
        let mut freed = Vec::new();
        for vpn in first..first + count {
            if let Some(pte) = self.pages.remove(&vpn) {
                if let Some(pfn) = pte.pfn {
                    freed.push(pfn);
                }
            }
        }
        Ok(freed)
    }

    /// Changes protection on `[vaddr, vaddr+len)` (the kernel half of
    /// `mprotect`), returning the affected pages so the caller can shoot
    /// down stale TLB entries.
    ///
    /// # Errors
    ///
    /// Fails on misalignment or if any page is unmapped; then no page
    /// changes.
    pub fn protect_region(
        &mut self,
        vaddr: u32,
        len: u32,
        prot: Prot,
    ) -> Result<PageRange, MapError> {
        let touched = PageRange::aligned(vaddr, len)?;
        if let Some(vpn) = touched
            .vpns
            .clone()
            .find(|vpn| !self.pages.contains_key(vpn))
        {
            return Err(MapError::NotMapped(vpn));
        }
        for (_, pte) in self.pages.range_mut(touched.vpns.clone()) {
            pte.prot = prot;
        }
        Ok(touched)
    }

    /// Grants or revokes the user-modifiable TLB bit on a range, returning
    /// the affected pages.
    ///
    /// # Errors
    ///
    /// Fails on misalignment or if any page is unmapped; the pages before
    /// the first unmapped one have changed.
    pub fn set_user_modifiable(
        &mut self,
        vaddr: u32,
        len: u32,
        allowed: bool,
    ) -> Result<PageRange, MapError> {
        let touched = PageRange::aligned(vaddr, len)?;
        for vpn in touched.vpns.clone() {
            let pte = self.pages.get_mut(&vpn).ok_or(MapError::NotMapped(vpn))?;
            pte.user_modifiable = allowed;
        }
        Ok(touched)
    }

    /// Pins (or unpins) a mapped range.
    ///
    /// # Errors
    ///
    /// Fails if any page is unmapped.
    pub fn set_pinned(&mut self, vaddr: u32, len: u32, pinned: bool) -> Result<(), MapError> {
        let first = vaddr / PAGE_SIZE;
        let last = (vaddr + len - 1) / PAGE_SIZE;
        for vpn in first..=last {
            let pte = self.pages.get_mut(&vpn).ok_or(MapError::NotMapped(vpn))?;
            pte.pinned = pinned;
        }
        Ok(())
    }

    /// Classifies an access: `Ok(pfn)` when it can proceed against a
    /// resident frame, or the fault the hardware/kernel must handle.
    ///
    /// # Errors
    ///
    /// Returns the [`FaultKind`] preventing the access.
    pub fn classify(&self, vaddr: u32, write: bool) -> Result<Pfn, FaultKind> {
        let pte = self.pte(vaddr).ok_or(FaultKind::NotMapped)?;
        let allowed = if write {
            pte.prot.allows_write()
        } else {
            pte.prot.allows_read()
        };
        if !allowed {
            return Err(FaultKind::Protection);
        }
        pte.pfn.ok_or(FaultKind::NotResident)
    }

    /// Ensures the page holding `vaddr` is resident, allocating a zeroed
    /// frame on first touch. Returns `(pfn, newly_resident)`.
    ///
    /// # Errors
    ///
    /// Fails if the page is unmapped or memory is exhausted.
    pub fn ensure_resident(
        &mut self,
        vaddr: u32,
        frames: &mut FrameAllocator,
    ) -> Result<(Pfn, bool), MapError> {
        let vpn = vaddr / PAGE_SIZE;
        let pte = self.pages.get_mut(&vpn).ok_or(MapError::NotMapped(vpn))?;
        if let Some(pfn) = pte.pfn {
            return Ok((pfn, false));
        }
        let pfn = frames.alloc()?;
        pte.pfn = Some(pfn);
        Ok((pfn, true))
    }

    /// Builds the TLB entry the refill handler would write for `vaddr`,
    /// if the page is resident and at least readable.
    pub fn tlb_entry_for(&self, vaddr: u32) -> Option<TlbEntry> {
        let vpn = vaddr / PAGE_SIZE;
        let pte = self.pages.get(&vpn)?;
        let pfn = pte.pfn?;
        if !pte.prot.allows_read() {
            return None;
        }
        Some(TlbEntry {
            vpn,
            asid: self.asid,
            pfn,
            valid: true,
            dirty: pte.prot.allows_write(),
            global: false,
            user_modifiable: pte.user_modifiable,
        })
    }

    /// Iterates over `(vpn, pte)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&u32, &Pte)> {
        self.pages.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(1)
    }

    #[test]
    fn map_and_classify() {
        let mut a = space();
        a.map_region(0x1000_0000, 2 * PAGE_SIZE, Prot::ReadWrite)
            .unwrap();
        // Mapped but not resident yet.
        assert_eq!(a.classify(0x1000_0004, false), Err(FaultKind::NotResident));
        let mut frames = FrameAllocator::new(100, 200);
        let (pfn, new) = a.ensure_resident(0x1000_0004, &mut frames).unwrap();
        assert!(new);
        assert_eq!(a.classify(0x1000_0004, true), Ok(pfn));
        // Unmapped address.
        assert_eq!(a.classify(0x2000_0000, false), Err(FaultKind::NotMapped));
    }

    #[test]
    fn mapping_rejects_overlap_and_misalignment() {
        let mut a = space();
        a.map_region(0x1000, PAGE_SIZE, Prot::Read).unwrap();
        assert_eq!(
            a.map_region(0x1000, PAGE_SIZE, Prot::Read),
            Err(MapError::Overlap(1))
        );
        assert_eq!(
            a.map_region(0x1004, PAGE_SIZE, Prot::Read),
            Err(MapError::Unaligned)
        );
        assert_eq!(
            a.map_region(0x2000, 12, Prot::Read),
            Err(MapError::Unaligned)
        );
    }

    #[test]
    fn protection_changes_classify_correctly() {
        let mut a = space();
        let mut frames = FrameAllocator::new(0, 10);
        a.map_region(0x4000, PAGE_SIZE, Prot::ReadWrite).unwrap();
        a.ensure_resident(0x4000, &mut frames).unwrap();
        assert!(a.classify(0x4000, true).is_ok());
        let touched = a.protect_region(0x4000, PAGE_SIZE, Prot::Read).unwrap();
        assert_eq!(touched.collect::<Vec<_>>(), [0x4000]);
        assert!(a.classify(0x4000, false).is_ok());
        assert_eq!(a.classify(0x4000, true), Err(FaultKind::Protection));
        a.protect_region(0x4000, PAGE_SIZE, Prot::None).unwrap();
        assert_eq!(a.classify(0x4000, false), Err(FaultKind::Protection));
    }

    #[test]
    fn protect_unmapped_is_an_error_and_atomic() {
        let mut a = space();
        a.map_region(0x4000, PAGE_SIZE, Prot::ReadWrite).unwrap();
        let e = a.protect_region(0x4000, 2 * PAGE_SIZE, Prot::Read);
        assert_eq!(e, Err(MapError::NotMapped(5)));
        // First page untouched by the failed call: still writable.
        assert_eq!(a.pte(0x4000).unwrap().prot, Prot::ReadWrite);
    }

    #[test]
    fn unmap_returns_frames() {
        let mut a = space();
        let mut frames = FrameAllocator::new(7, 20);
        a.map_region(0x4000, 2 * PAGE_SIZE, Prot::ReadWrite)
            .unwrap();
        a.ensure_resident(0x4000, &mut frames).unwrap();
        let freed = a.unmap_region(0x4000, 2 * PAGE_SIZE).unwrap();
        assert_eq!(freed, vec![7]);
        assert_eq!(a.mapped_pages(), 0);
    }

    #[test]
    fn tlb_entry_reflects_protection() {
        let mut a = space();
        let mut frames = FrameAllocator::new(3, 10);
        a.map_region(0x4000, PAGE_SIZE, Prot::Read).unwrap();
        assert!(a.tlb_entry_for(0x4000).is_none(), "not resident yet");
        a.ensure_resident(0x4000, &mut frames).unwrap();
        let e = a.tlb_entry_for(0x4000).unwrap();
        assert_eq!(e.pfn, 3);
        assert!(e.valid && !e.dirty);
        a.protect_region(0x4000, PAGE_SIZE, Prot::None).unwrap();
        assert!(
            a.tlb_entry_for(0x4000).is_none(),
            "no entry for protect-all"
        );
        a.protect_region(0x4000, PAGE_SIZE, Prot::ReadWrite)
            .unwrap();
        let e = a.tlb_entry_for(0x4000).unwrap();
        assert!(e.dirty);
    }

    #[test]
    fn user_modifiable_bit_propagates_to_tlb_entry() {
        let mut a = space();
        let mut frames = FrameAllocator::new(0, 10);
        a.map_region(0x4000, PAGE_SIZE, Prot::ReadWrite).unwrap();
        a.ensure_resident(0x4000, &mut frames).unwrap();
        a.set_user_modifiable(0x4000, PAGE_SIZE, true).unwrap();
        assert!(a.tlb_entry_for(0x4000).unwrap().user_modifiable);
    }

    #[test]
    fn pinning_requires_mapping() {
        let mut a = space();
        assert!(a.set_pinned(0x4000, PAGE_SIZE, true).is_err());
        a.map_region(0x4000, PAGE_SIZE, Prot::ReadWrite).unwrap();
        a.set_pinned(0x4000, PAGE_SIZE, true).unwrap();
        assert!(a.pte(0x4000).unwrap().pinned);
    }
}
