//! Flat physical memory.
//!
//! Accesses are by physical address; translation happens in
//! [`crate::machine`]. Out-of-range accesses return [`BusError`], which the
//! machine turns into a bus-error exception.

use std::error::Error;
use std::fmt;

/// Access past the end of physical memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BusError {
    /// The offending physical address.
    pub paddr: u32,
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bus error at physical address {:#010x}", self.paddr)
    }
}

impl Error for BusError {}

/// Page shift for the per-page write version counters: one
/// [`crate::tlb::PAGE_SIZE`] page.
const PAGE_SHIFT: u32 = crate::tlb::PAGE_SIZE.trailing_zeros();

/// Byte-addressable physical memory, little-endian like the DECstation's
/// R3000 configuration.
///
/// Every write bumps a per-page **version counter** ([`Memory::page_version`]).
/// Both instruction caches in [`crate::machine::Machine`] — the decode
/// cache and the superblock cache — tag what they decoded with the version
/// of the physical page it was fetched from, so any store to text — guest
/// stores, host `mem_mut()` writes, image loads — invalidates the affected
/// lines and blocks without explicit hooks. The version is what lets a
/// superblock outlive a TLB change: once its start address re-translates
/// to the same page, an unchanged version proves its ops are still exact.
///
/// Version 0 is reserved: it means "never written since [`Memory::new`]".
/// A counter that wraps skips it, so a page reporting version 0 is
/// all zero, and [`Memory::written_pages`] names every page that may not be.
#[derive(Clone, Debug)]
pub struct Memory {
    bytes: Vec<u8>,
    page_versions: Vec<u32>,
}

impl Memory {
    /// Allocates `size` bytes of zeroed physical memory.
    pub fn new(size: usize) -> Memory {
        let pages = size.div_ceil(1 << PAGE_SHIFT);
        Memory {
            bytes: vec![0; size],
            page_versions: vec![0; pages],
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// The write-version of the page containing `paddr`: 0 if the page was
    /// never written. Out-of-range addresses report version 0 (they hold no
    /// cacheable text).
    pub fn page_version(&self, paddr: u32) -> u32 {
        self.page_versions
            .get((paddr >> PAGE_SHIFT) as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Indices (`paddr / PAGE_SIZE`) of the pages written since
    /// [`Memory::new`], ascending. Every other page is all zero.
    pub fn written_pages(&self) -> impl Iterator<Item = u32> + '_ {
        self.page_versions
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0)
            .map(|(page, _)| page as u32)
    }

    fn bump_page(&mut self, paddr: u32) {
        let page = (paddr >> PAGE_SHIFT) as usize;
        if let Some(v) = self.page_versions.get_mut(page) {
            *v = next_version(*v);
        }
    }

    fn bump_range(&mut self, paddr: u32, len: usize) {
        if len == 0 {
            return;
        }
        let first = (paddr >> PAGE_SHIFT) as usize;
        let last = (((paddr as usize + len - 1) >> PAGE_SHIFT) + 1).min(self.page_versions.len());
        for v in &mut self.page_versions[first..last] {
            *v = next_version(*v);
        }
    }

    fn check(&self, paddr: u32, len: u32) -> Result<usize, BusError> {
        let end = paddr as u64 + len as u64;
        if end > self.bytes.len() as u64 {
            return Err(BusError { paddr });
        }
        Ok(paddr as usize)
    }

    /// Reads one byte.
    pub fn read_u8(&self, paddr: u32) -> Result<u8, BusError> {
        let i = self.check(paddr, 1)?;
        Ok(self.bytes[i])
    }

    /// Reads a halfword. The address must already be aligned (the machine
    /// checks alignment before translation).
    pub fn read_u16(&self, paddr: u32) -> Result<u16, BusError> {
        let i = self.check(paddr, 2)?;
        Ok(u16::from_le_bytes([self.bytes[i], self.bytes[i + 1]]))
    }

    /// Reads a word.
    pub fn read_u32(&self, paddr: u32) -> Result<u32, BusError> {
        let i = self.check(paddr, 4)?;
        Ok(u32::from_le_bytes([
            self.bytes[i],
            self.bytes[i + 1],
            self.bytes[i + 2],
            self.bytes[i + 3],
        ]))
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, paddr: u32, v: u8) -> Result<(), BusError> {
        let i = self.check(paddr, 1)?;
        self.bytes[i] = v;
        self.bump_page(paddr);
        Ok(())
    }

    /// Writes a halfword.
    pub fn write_u16(&mut self, paddr: u32, v: u16) -> Result<(), BusError> {
        let i = self.check(paddr, 2)?;
        self.bytes[i..i + 2].copy_from_slice(&v.to_le_bytes());
        self.bump_page(paddr);
        Ok(())
    }

    /// Writes a word.
    pub fn write_u32(&mut self, paddr: u32, v: u32) -> Result<(), BusError> {
        let i = self.check(paddr, 4)?;
        self.bytes[i..i + 4].copy_from_slice(&v.to_le_bytes());
        self.bump_page(paddr);
        Ok(())
    }

    /// Copies a slice into memory.
    pub fn write_bytes(&mut self, paddr: u32, data: &[u8]) -> Result<(), BusError> {
        let i = self.check(paddr, data.len() as u32)?;
        self.bytes[i..i + data.len()].copy_from_slice(data);
        self.bump_range(paddr, data.len());
        Ok(())
    }

    /// Reads `len` bytes.
    pub fn read_bytes(&self, paddr: u32, len: usize) -> Result<&[u8], BusError> {
        let i = self.check(paddr, len as u32)?;
        Ok(&self.bytes[i..i + len])
    }

    /// Zero-fills a range.
    pub fn zero(&mut self, paddr: u32, len: usize) -> Result<(), BusError> {
        let i = self.check(paddr, len as u32)?;
        self.bytes[i..i + len].fill(0);
        self.bump_range(paddr, len);
        Ok(())
    }
}

/// The version after `v`, skipping the reserved "never written" 0.
fn next_version(v: u32) -> u32 {
    v.wrapping_add(1).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_round_trip_little_endian() {
        let mut m = Memory::new(64);
        m.write_u32(0, 0x1234_5678).unwrap();
        assert_eq!(m.read_u32(0).unwrap(), 0x1234_5678);
        assert_eq!(m.read_u8(0).unwrap(), 0x78);
        assert_eq!(m.read_u8(3).unwrap(), 0x12);
        assert_eq!(m.read_u16(2).unwrap(), 0x1234);
    }

    #[test]
    fn out_of_range_is_bus_error() {
        let mut m = Memory::new(8);
        assert_eq!(m.read_u32(8).unwrap_err(), BusError { paddr: 8 });
        assert_eq!(m.read_u32(6).unwrap_err(), BusError { paddr: 6 });
        assert!(m.write_u8(7, 1).is_ok());
        assert!(m.write_u16(7, 1).is_err());
    }

    #[test]
    fn page_versions_track_every_write_path() {
        let written = |m: &Memory| m.written_pages().collect::<Vec<_>>();
        let mut m = Memory::new(4 << 12);
        assert_eq!(m.page_version(0), 0);
        assert_eq!(written(&m), []);
        m.write_u8(0x10, 1).unwrap();
        m.write_u16(0x20, 2).unwrap();
        m.write_u32(0x30, 3).unwrap();
        assert_eq!(m.page_version(0xfff), 3, "same page, three writes");
        assert_eq!(m.page_version(0x1000), 0, "neighbour untouched");
        assert_eq!(written(&m), [0]);
        // A spanning copy bumps every page it touches.
        m.write_bytes(0x0ffe, &[0; 4]).unwrap();
        assert_eq!(m.page_version(0), 4);
        assert_eq!(m.page_version(0x1000), 1);
        assert_eq!(written(&m), [0, 1]);
        // Zeroing is a write too.
        m.zero(0x1000, 2 << 12).unwrap();
        assert_eq!(m.page_version(0x1000), 2);
        assert_eq!(m.page_version(0x2000), 1);
        assert_eq!(written(&m), [0, 1, 2]);
        // Reads, failed writes and empty ranges never bump; out-of-range
        // queries report 0.
        m.read_u32(0x3000).unwrap();
        assert!(m.write_u32(4 << 12, 1).is_err());
        m.write_bytes(0x3000, &[]).unwrap();
        m.zero(0x3000, 0).unwrap();
        assert_eq!(m.page_version(0x3000), 0);
        assert_eq!(m.page_version(0), 4);
        assert_eq!(m.page_version(0x4000_0000), 0);
        assert_eq!(written(&m), [0, 1, 2]);
        // Storing a zero is a write.
        m.write_u8(0x3fff, 0).unwrap();
        assert_eq!(written(&m), [0, 1, 2, 3]);
    }

    #[test]
    fn page_version_never_returns_to_zero() {
        let mut m = Memory::new(2 << 12);
        m.page_versions[1] = u32::MAX;
        m.write_u8(0x1000, 0).unwrap();
        assert_eq!(m.page_version(0x1000), 1);
        m.page_versions[1] = u32::MAX;
        m.zero(0x0800, 0x1000).unwrap();
        assert_eq!(m.page_version(0x1000), 1);
        assert_eq!(m.written_pages().collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn bulk_copy_and_zero() {
        let mut m = Memory::new(16);
        m.write_bytes(4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read_bytes(4, 4).unwrap(), &[1, 2, 3, 4]);
        m.zero(5, 2).unwrap();
        assert_eq!(m.read_bytes(4, 4).unwrap(), &[1, 0, 0, 4]);
    }
}
