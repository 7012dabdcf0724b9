//! Flat physical memory, backed only up to its highest written page.
//!
//! Accesses are by physical address; translation happens in
//! [`crate::machine`]. Out-of-range accesses return [`BusError`], which the
//! machine turns into a bus-error exception.
//!
//! A machine has an architectural size (16 MB for a booted kernel), but a
//! guest touches little of it: the kernel image and u-area fill page 0 and
//! user frames are handed out upward from page 1. So the host store is a flat
//! byte vector that covers only a prefix of physical memory — up to the end
//! of the highest page ever written — and every byte past it reads as zero.
//! Building, cloning and snapshotting a machine cost what the guest wrote,
//! not what it could address.

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
/// The host store is **backed only up to the highest written page**
/// ([`Memory::backed_bytes`]): bytes past the backed end read as zero
/// without being stored, and a write past it grows the store, a whole page
/// at a time and never past [`Memory::size`]. An in-range access inside the
/// backed prefix costs one bounds compare, as on a fully allocated store;
/// the architectural behaviour — values, bus errors at `size`, page
/// versions — is that of `size` bytes of zero-initialised memory.
///
/// Every write bumps a per-page **version counter** ([`Memory::page_version`]).
/// The instruction cache of [`crate::machine::Machine`], its superblock
/// cache, tags each block with the version of the physical page its ops
/// were fetched from, so any store to text — guest stores, host
/// `mem_mut()` writes, image loads — invalidates the affected blocks
/// without explicit hooks. The version is what lets a
/// superblock outlive a TLB change: once its start address re-translates
/// to the same page, an unchanged version proves its ops are still exact.
///
/// Version 0 is reserved: it means "never written since [`Memory::new`]".
/// A counter that wraps skips it, so a page reporting version 0 is
/// all zero, and [`Memory::written_pages`] names every page that may not be.
#[derive(Clone, Debug)]
pub struct Memory {
    /// The backed prefix of physical memory; every byte at or past its
    /// length is zero. Never longer than `size`, and every written page
    /// lies inside it.
    bytes: Vec<u8>,
    /// Architectural size in bytes: an access ending past it is a bus error.
    size: usize,
    page_versions: Vec<u32>,
}

impl Memory {
    /// Creates `size` bytes of zeroed physical memory. Nothing is backed
    /// until the first write.
    pub fn new(size: usize) -> Memory {
        let pages = size.div_ceil(1 << PAGE_SHIFT);
        Memory {
            bytes: Vec::new(),
            size,
            page_versions: vec![0; pages],
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Bytes of host store backing this memory: the end of the highest page
    /// written so far (capped at [`Memory::size`]). Everything past it is
    /// zero and costs no host memory.
    pub fn backed_bytes(&self) -> usize {
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

    /// Bumps the page of an `N`-byte access at `paddr` and, if its last
    /// byte lies in the next page, that page too. Guest accesses are aligned
    /// and never straddle, so they pay one extra compare.
    #[inline(always)]
    fn bump_access<const N: usize>(&mut self, paddr: u32) {
        self.bump_page(paddr);
        let last = paddr.wrapping_add(N as u32 - 1);
        if last >> PAGE_SHIFT != paddr >> PAGE_SHIFT {
            self.bump_page(last);
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

    /// `paddr` as an index, if `[paddr, paddr + len)` lies inside `size`.
    fn check(&self, paddr: u32, len: usize) -> Result<usize, BusError> {
        let end = paddr as u64 + len as u64;
        if end > self.size as u64 {
            return Err(BusError { paddr });
        }
        Ok(paddr as usize)
    }

    /// Loads `N` bytes: one bounds compare inside the backed prefix.
    #[inline(always)]
    fn load<const N: usize>(&self, paddr: u32) -> Result<[u8; N], BusError> {
        let i = paddr as usize;
        match self.bytes.get(i..i + N) {
            Some(b) => Ok(b.try_into().expect("slice of length N")),
            None => self.load_unbacked(paddr),
        }
    }

    #[cold]
    #[inline(never)]
    fn load_unbacked<const N: usize>(&self, paddr: u32) -> Result<[u8; N], BusError> {
        let mut out = [0; N];
        self.read_into(paddr, &mut out)?;
        Ok(out)
    }

    /// The store for `[paddr, paddr + len)`: one bounds compare inside the
    /// backed prefix. Does not bump versions.
    #[inline(always)]
    fn span_mut(&mut self, paddr: u32, len: usize) -> Result<&mut [u8], BusError> {
        let i = paddr as usize;
        if i + len <= self.bytes.len() {
            return Ok(&mut self.bytes[i..i + len]);
        }
        self.grow_to_cover(paddr, len)
    }

    /// Extends the backed prefix over `[paddr, paddr + len)`, to the end of
    /// its last page (capped at `size`), and returns that span.
    #[cold]
    #[inline(never)]
    fn grow_to_cover(&mut self, paddr: u32, len: usize) -> Result<&mut [u8], BusError> {
        let i = self.check(paddr, len)?;
        let page = 1usize << PAGE_SHIFT;
        let end = (i + len).next_multiple_of(page).min(self.size);
        if end > self.bytes.len() {
            self.bytes.resize(end, 0);
        }
        Ok(&mut self.bytes[i..i + len])
    }

    /// Reads one byte.
    pub fn read_u8(&self, paddr: u32) -> Result<u8, BusError> {
        self.load::<1>(paddr).map(|[b]| b)
    }

    /// Reads a halfword. The address must already be aligned (the machine
    /// checks alignment before translation).
    pub fn read_u16(&self, paddr: u32) -> Result<u16, BusError> {
        self.load(paddr).map(u16::from_le_bytes)
    }

    /// Reads a word.
    pub fn read_u32(&self, paddr: u32) -> Result<u32, BusError> {
        self.load(paddr).map(u32::from_le_bytes)
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, paddr: u32, v: u8) -> Result<(), BusError> {
        self.span_mut(paddr, 1)?[0] = v;
        self.bump_page(paddr);
        Ok(())
    }

    /// Writes a halfword.
    pub fn write_u16(&mut self, paddr: u32, v: u16) -> Result<(), BusError> {
        self.span_mut(paddr, 2)?.copy_from_slice(&v.to_le_bytes());
        self.bump_access::<2>(paddr);
        Ok(())
    }

    /// Writes a word.
    pub fn write_u32(&mut self, paddr: u32, v: u32) -> Result<(), BusError> {
        self.span_mut(paddr, 4)?.copy_from_slice(&v.to_le_bytes());
        self.bump_access::<4>(paddr);
        Ok(())
    }

    /// Reads `out.len()` consecutive words from `paddr`, as a loop of
    /// [`Memory::read_u32`] would: one bounds compare for the whole run
    /// inside the backed prefix.
    ///
    /// # Errors
    ///
    /// The [`BusError`] of the first word that lies past [`Memory::size`].
    pub fn read_words(&self, paddr: u32, out: &mut [u32]) -> Result<(), BusError> {
        let i = paddr as usize;
        match self.bytes.get(i..i + 4 * out.len()) {
            Some(b) => {
                for (w, b) in out.iter_mut().zip(b.chunks_exact(4)) {
                    *w = u32::from_le_bytes(b.try_into().expect("chunk of 4"));
                }
                Ok(())
            }
            None => self.read_words_unbacked(paddr, out),
        }
    }

    /// [`Memory::read_words`] for a run that is not all backed: word by
    /// word, so unbacked words read as zero and the first word past
    /// [`Memory::size`] fails.
    #[cold]
    #[inline(never)]
    fn read_words_unbacked(&self, paddr: u32, out: &mut [u32]) -> Result<(), BusError> {
        for (k, w) in out.iter_mut().enumerate() {
            *w = self.read_u32(paddr.wrapping_add(4 * k as u32))?;
        }
        Ok(())
    }

    /// Writes `words` as consecutive words from `paddr`, leaving memory as
    /// a loop of [`Memory::write_u32`] would: one bounds compare for the
    /// whole run, and one version bump per page the run touches rather
    /// than one per word.
    ///
    /// # Errors
    ///
    /// The [`BusError`] of the first word that lies past [`Memory::size`];
    /// the words before it are written.
    pub fn write_words(&mut self, paddr: u32, words: &[u32]) -> Result<(), BusError> {
        let len = 4 * words.len();
        match self.span_mut(paddr, len) {
            Ok(span) => {
                for (b, w) in span.chunks_exact_mut(4).zip(words) {
                    b.copy_from_slice(&w.to_le_bytes());
                }
                self.bump_range(paddr, len);
                Ok(())
            }
            Err(_) => self.write_words_past_end(paddr, words),
        }
    }

    /// [`Memory::write_words`] for a run that ends past [`Memory::size`]:
    /// word by word up to the first that does not fit.
    #[cold]
    #[inline(never)]
    fn write_words_past_end(&mut self, paddr: u32, words: &[u32]) -> Result<(), BusError> {
        for (k, &w) in words.iter().enumerate() {
            self.write_u32(paddr.wrapping_add(4 * k as u32), w)?;
        }
        Ok(())
    }

    /// Copies a slice into memory.
    pub fn write_bytes(&mut self, paddr: u32, data: &[u8]) -> Result<(), BusError> {
        self.span_mut(paddr, data.len())?.copy_from_slice(data);
        self.bump_range(paddr, data.len());
        Ok(())
    }

    /// Copies `out.len()` bytes starting at `paddr` into `out`. Any span
    /// inside [`Memory::size`] can be read, backed or not.
    pub fn read_into(&self, paddr: u32, out: &mut [u8]) -> Result<(), BusError> {
        let i = self.check(paddr, out.len())?;
        let end = self.bytes.len().min(i + out.len());
        let backed = self.bytes.get(i..end).unwrap_or_default();
        out[..backed.len()].copy_from_slice(backed);
        out[backed.len()..].fill(0);
        Ok(())
    }

    /// Zero-fills a range. Only the backed part is touched: the rest
    /// already reads as zero.
    pub fn zero(&mut self, paddr: u32, len: usize) -> Result<(), BusError> {
        let i = self.check(paddr, len)?;
        let end = (i + len).min(self.bytes.len());
        if i < end {
            self.bytes[i..end].fill(0);
        }
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
    fn a_straddling_word_or_halfword_bumps_both_pages() {
        let mut m = Memory::new(3 << 12);
        m.write_u32(0x0ffe, 4).unwrap();
        assert_eq!((m.page_version(0), m.page_version(0x1000)), (1, 1));
        m.write_u16(0x1fff, 5).unwrap();
        assert_eq!((m.page_version(0x1000), m.page_version(0x2000)), (2, 1));
        assert_eq!(m.written_pages().collect::<Vec<_>>(), [0, 1, 2]);
        // An aligned access inside one page bumps only that page.
        m.write_u32(0x2ffc, 6).unwrap();
        assert_eq!(m.page_version(0x2000), 2);
        assert_eq!(m.read_u32(0x0ffe).unwrap(), 4);
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
        let read = |m: &Memory| {
            let mut out = [0; 4];
            m.read_into(4, &mut out).unwrap();
            out
        };
        let mut m = Memory::new(16);
        m.write_bytes(4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(read(&m), [1, 2, 3, 4]);
        m.zero(5, 2).unwrap();
        assert_eq!(read(&m), [1, 0, 0, 4]);
    }

    #[test]
    fn only_written_pages_are_backed() {
        let mut m = Memory::new((3 << 12) + 6);
        assert_eq!(m.backed_bytes(), 0);
        assert_eq!(m.read_u32(0x2000).unwrap(), 0, "unbacked reads are zero");
        // Zeroing never backs anything, but still counts as a write.
        m.zero(0, 0x3000).unwrap();
        assert_eq!(m.backed_bytes(), 0);
        assert_eq!(m.written_pages().count(), 3);
        // A write backs through the end of its page.
        m.write_u16(0x1ffe, 0xbeef).unwrap();
        assert_eq!(m.backed_bytes(), 0x2000);
        // A read straddling the backed end copies out what is backed.
        let mut out = [0xff; 4];
        m.read_into(0x1ffe, &mut out).unwrap();
        assert_eq!(out, [0xef, 0xbe, 0, 0]);
        // The partial last page is backed only up to `size`.
        m.write_u8(0x3005, 9).unwrap();
        assert_eq!(m.backed_bytes(), m.size());
        assert_eq!(
            m.write_u8(0x3006, 1).unwrap_err(),
            BusError { paddr: 0x3006 }
        );
        assert!(m.read_into(0x3000, &mut [0; 7]).is_err());
    }
}
