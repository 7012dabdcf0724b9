//! The heap's host-side metadata: a table indexed by heap page.
//!
//! Object *fields* live in simulated guest memory (so stores can fault);
//! object *metadata* (size, generation, mark bit) lives host-side, modeling
//! the collector's internal tables whose costs are charged explicitly.
//!
//! Every object starts on an 8-byte granule, and only a large object (see
//! `Gc::alloc_large`) crosses a page boundary. So the table keeps, per heap
//! page, a bitmap of the granules where objects start, one record per
//! granule, a live count, the page's generation and its dirty subpages. A
//! later page of a large object names the object that covers it. Every
//! lookup — exact, conservative (interior pointers included), occupancy —
//! is an array index plus a bit scan within one page.

use efex_simos::layout::{PAGE_SIZE, SUBPAGE_SIZE};

/// A reference to a heap object: the guest virtual address of its first
/// field. Word-aligned by construction, so a tagged integer (odd) can never
/// collide with one.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjRef(pub(crate) u32);

impl ObjRef {
    /// The guest virtual address of the object's first field.
    pub fn addr(self) -> u32 {
        self.0
    }
}

/// A field value: a small integer or an object reference.
///
/// Integers are stored tagged (`2n + 1`), so a conservative scan never
/// mistakes them for pointers (heap addresses are word-aligned).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Value {
    /// A 31-bit integer: values outside `-(2^30) .. 2^30` wrap on the
    /// encode/decode round trip, exactly as in tagged Lisp systems.
    Int(i32),
    /// A heap reference.
    Ref(ObjRef),
    /// The null reference.
    Nil,
}

impl Value {
    /// Encodes to the in-memory word.
    pub fn encode(self) -> u32 {
        match self {
            Value::Int(n) => ((n as u32) << 1) | 1,
            Value::Ref(r) => r.0,
            Value::Nil => 0,
        }
    }

    /// Decodes from the in-memory word. Any even non-zero word is treated
    /// as a reference (the conservative interpretation; validity is checked
    /// against the object table at use).
    pub fn decode(word: u32) -> Value {
        if word == 0 {
            Value::Nil
        } else if word & 1 == 1 {
            Value::Int((word as i32) >> 1)
        } else {
            Value::Ref(ObjRef(word))
        }
    }
}

/// Host-side per-object record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Obj {
    /// Size in words (fields only).
    pub words: u32,
    /// Old generation?
    pub old: bool,
    /// Mark bit for the current collection.
    pub marked: bool,
}

/// Host-side per-page record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockGen {
    /// Currently receiving allocations.
    Young,
    /// Holds promoted (old) objects and is write-protected between
    /// collections under the page-protection barrier.
    Old,
}

/// Object starts are aligned to this many bytes.
const GRANULE: u32 = 8;
/// Granules per page, and so records and start bits per page.
const GRANULES: usize = (PAGE_SIZE / GRANULE) as usize;
/// Subpages per page: one dirty bit each.
const SUBPAGES: u32 = PAGE_SIZE / SUBPAGE_SIZE;

/// The set bits of a start bitmap, ascending.
fn set_bits(bitmap: [u64; GRANULES / 64]) -> impl Iterator<Item = usize> {
    bitmap.into_iter().enumerate().flat_map(|(w, mut bits)| {
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + b
            })
        })
    })
}

/// One heap page's slice of the object table.
#[derive(Clone, Debug, Default)]
struct Page {
    /// `None` while the page is free.
    gen: Option<BlockGen>,
    /// Bit `i` set: subpage `i` was written since the last collection.
    dirty: u8,
    /// Bit `g` set: an object starts at granule `g`.
    starts: [u64; GRANULES / 64],
    /// The record of the object starting at each granule; allocated when
    /// the page first receives an object.
    objs: Vec<Obj>,
    /// Objects starting on this page.
    live: u16,
    /// The base of the large object that covers this page from an earlier
    /// one.
    cover: Option<u32>,
}

impl Page {
    fn has_start(&self, g: usize) -> bool {
        self.starts[g / 64] & (1 << (g % 64)) != 0
    }

    /// The last granule at or before `g` where an object starts.
    fn last_start_at_or_before(&self, g: usize) -> Option<usize> {
        let w = g / 64;
        let below = self.starts[w] & (u64::MAX >> (63 - g % 64));
        if below != 0 {
            return Some(w * 64 + 63 - below.leading_zeros() as usize);
        }
        (0..w)
            .rev()
            .find(|&i| self.starts[i] != 0)
            .map(|i| i * 64 + 63 - self.starts[i].leading_zeros() as usize)
    }

    /// Whether any object overlaps the page.
    fn occupied(&self) -> bool {
        self.live > 0 || self.cover.is_some()
    }
}

/// The heap's bookkeeping state (shared with the fault handler through an
/// `Rc<RefCell<_>>` in [`crate::Gc`]).
///
/// The object table, the page generations and the barrier's dirty set all
/// live in one vector indexed by heap page. A page is free exactly when it
/// has no generation; `free_pages` orders the free pages for allocation.
#[derive(Debug, Default)]
pub struct HeapState {
    /// Region bounds in guest memory.
    pub base: u32,
    pub limit: u32,
    /// The object table, one entry per heap page.
    pages: Vec<Page>,
    /// Live objects in the table.
    objects: usize,
    /// Pages available for allocation: a stack, popped from the end.
    free_pages: Vec<u32>,
    /// Current young allocation page and offset.
    pub cur_page: Option<u32>,
    pub cur_off: u32,
    /// Sequential store buffer (software-check barrier): slot addresses.
    pub ssb: Vec<u32>,
    /// Bytes allocated since the last minor collection.
    pub bytes_since_minor: u32,
    /// Explicitly registered root objects (a stack).
    pub roots: Vec<u32>,
}

impl HeapState {
    /// Initializes bookkeeping over a guest region `[base, base+len)`.
    pub fn new(base: u32, len: u32) -> HeapState {
        let pages = len.div_ceil(PAGE_SIZE) as usize;
        HeapState {
            base,
            limit: base + len,
            pages: vec![Page::default(); pages],
            // Allocate low pages first.
            free_pages: (0..pages as u32)
                .rev()
                .map(|i| base + i * PAGE_SIZE)
                .collect(),
            ..HeapState::default()
        }
    }

    /// Whether `addr` lies within the heap region.
    pub fn contains(&self, addr: u32) -> bool {
        (self.base..self.limit).contains(&addr)
    }

    /// The page holding an address.
    pub fn page_of(addr: u32) -> u32 {
        addr & !(PAGE_SIZE - 1)
    }

    /// The table index of the page holding `addr` (which must be in the
    /// heap).
    fn index(&self, addr: u32) -> usize {
        ((addr - self.base) / PAGE_SIZE) as usize
    }

    /// The address of the page at table index `i`.
    fn page_addr(&self, i: usize) -> u32 {
        self.base + i as u32 * PAGE_SIZE
    }

    /// Splits an address into its page's table index and granule.
    fn locate(&self, addr: u32) -> (usize, usize) {
        (
            self.index(addr),
            ((addr & (PAGE_SIZE - 1)) / GRANULE) as usize,
        )
    }

    /// Live objects in the table.
    pub fn len(&self) -> usize {
        self.objects
    }

    /// The record of the object starting exactly at `addr`.
    pub fn get(&self, addr: u32) -> Option<&Obj> {
        if !addr.is_multiple_of(GRANULE) || !self.contains(addr) {
            return None;
        }
        let (i, g) = self.locate(addr);
        let page = &self.pages[i];
        page.has_start(g).then(|| &page.objs[g])
    }

    /// The mutable record of the object starting exactly at `addr`.
    pub fn get_mut(&mut self, addr: u32) -> Option<&mut Obj> {
        if !addr.is_multiple_of(GRANULE) || !self.contains(addr) {
            return None;
        }
        let (i, g) = self.locate(addr);
        let page = &mut self.pages[i];
        page.has_start(g).then(|| &mut page.objs[g])
    }

    /// Records an object at `addr`, which must be granule-aligned, free,
    /// and either fit in its page or start one (a large object).
    pub fn insert(&mut self, addr: u32, obj: Obj) {
        debug_assert!(obj.words > 0 && addr.is_multiple_of(GRANULE) && self.contains(addr));
        let (i, g) = self.locate(addr);
        let page = &mut self.pages[i];
        debug_assert!(!page.has_start(g), "object already at {addr:#x}");
        if page.objs.is_empty() {
            page.objs = vec![Obj::default(); GRANULES];
        }
        page.starts[g / 64] |= 1 << (g % 64);
        page.objs[g] = obj;
        page.live += 1;
        self.objects += 1;
        for later in self.later_pages(addr, obj.words) {
            self.pages[later].cover = Some(addr);
        }
    }

    /// Removes the object starting exactly at `addr`.
    #[cfg(test)]
    pub fn remove(&mut self, addr: u32) -> Option<Obj> {
        let obj = *self.get(addr)?;
        let (i, g) = self.locate(addr);
        self.unlink(i, g, obj.words);
        Some(obj)
    }

    /// Clears the start at granule `g` of page `i` (an object of `words`
    /// words) and any cover its later pages carry.
    fn unlink(&mut self, i: usize, g: usize, words: u32) {
        let page = &mut self.pages[i];
        page.starts[g / 64] &= !(1 << (g % 64));
        page.live -= 1;
        self.objects -= 1;
        let addr = self.page_addr(i) + g as u32 * GRANULE;
        for later in self.later_pages(addr, words) {
            self.pages[later].cover = None;
        }
    }

    /// Table indices of the pages after the first that an object of
    /// `words` words at `addr` spans.
    fn later_pages(&self, addr: u32, words: u32) -> std::ops::Range<usize> {
        self.index(addr) + 1..self.index(addr + words * 4 - 1) + 1
    }

    /// The object `word` points at or into, with its record.
    pub fn find(&self, word: u32) -> Option<(u32, &Obj)> {
        if word & 3 != 0 || !self.contains(word) {
            return None;
        }
        let (i, g) = self.locate(word);
        let page = &self.pages[i];
        let (base, obj) = match page.last_start_at_or_before(g) {
            Some(s) => (self.page_addr(i) + s as u32 * GRANULE, &page.objs[s]),
            None => {
                let base = page.cover?;
                (base, self.get(base).expect("a cover names a live object"))
            }
        };
        (word < base + obj.words * 4).then_some((base, obj))
    }

    /// Conservative pointer test: does `word` point at (or into) a live
    /// object? Returns the object's base address.
    pub fn find_object(&self, word: u32) -> Option<u32> {
        self.find(word).map(|(base, _)| base)
    }

    /// Whether any live object overlaps the page at `page`.
    #[cfg(test)]
    pub fn occupied(&self, page: u32) -> bool {
        self.pages[self.index(page)].occupied()
    }

    /// Every live object with its record, in address order.
    #[cfg(test)]
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Obj)> + '_ {
        self.pages.iter().enumerate().flat_map(move |(i, page)| {
            let addr = self.page_addr(i);
            set_bits(page.starts).map(move |g| (addr + g as u32 * GRANULE, &page.objs[g]))
        })
    }

    /// The generation of the page at `page`, or `None` while it is free.
    pub fn generation(&self, page: u32) -> Option<BlockGen> {
        self.pages[self.index(page)].gen
    }

    /// Sets the generation of the in-use page at `page`.
    pub fn set_generation(&mut self, page: u32, gen: BlockGen) {
        let i = self.index(page);
        self.pages[i].gen = Some(gen);
    }

    /// Takes the next page off the free stack as a young page.
    pub fn take_free_page(&mut self) -> Option<u32> {
        let page = self.free_pages.pop()?;
        self.set_generation(page, BlockGen::Young);
        Some(page)
    }

    /// Takes the lowest-addressed run of `pages` free pages as young pages:
    /// the run begins where the first maximal free run of at least that
    /// length does. The other free pages keep their stack order.
    pub fn take_free_run(&mut self, pages: u32) -> Option<u32> {
        let pages = pages as usize;
        if pages == 0 {
            return None;
        }
        let mut run = 0;
        let last = self.pages.iter().position(|p| {
            run = if p.gen.is_none() { run + 1 } else { 0 };
            run == pages
        })?;
        let first = last + 1 - pages;
        for page in &mut self.pages[first..=last] {
            page.gen = Some(BlockGen::Young);
        }
        let (base, table) = (self.base, &self.pages);
        self.free_pages
            .retain(|&p| table[((p - base) / PAGE_SIZE) as usize].gen.is_none());
        Some(self.page_addr(first))
    }

    /// Records a barrier write at `addr` (which must be in the heap).
    pub fn mark_dirty(&mut self, addr: u32) {
        let i = self.index(addr);
        self.pages[i].dirty |= 1 << ((addr & (PAGE_SIZE - 1)) / SUBPAGE_SIZE);
    }

    /// Pages written since the dirty set was last cleared, ascending.
    pub fn dirty_pages(&self) -> Vec<u32> {
        (0..self.pages.len())
            .filter(|&i| self.pages[i].dirty != 0)
            .map(|i| self.page_addr(i))
            .collect()
    }

    /// Subpages written since the dirty set was last cleared, ascending.
    pub fn dirty_subpages(&self) -> Vec<u32> {
        let mut subs = Vec::new();
        for (i, page) in self.pages.iter().enumerate() {
            for sub in 0..SUBPAGES {
                if page.dirty & (1 << sub) != 0 {
                    subs.push(self.page_addr(i) + sub * SUBPAGE_SIZE);
                }
            }
        }
        subs
    }

    /// Empties the dirty set.
    pub fn clear_dirty(&mut self) {
        for page in &mut self.pages {
            page.dirty = 0;
        }
    }

    /// All pages currently marked old, ascending.
    pub fn old_pages(&self) -> Vec<u32> {
        (0..self.pages.len())
            .filter(|&i| self.pages[i].gen == Some(BlockGen::Old))
            .map(|i| self.page_addr(i))
            .collect()
    }

    /// Frees unmarked objects (young only when `major` is false), promotes
    /// marked young objects and clears every mark. Then each in-use page
    /// with an object becomes old and each empty one returns to the free
    /// stack in ascending order — except the current allocation page, which
    /// stays young while empty and is retired once it turns old. Returns
    /// `(freed, promoted)`.
    pub fn sweep(&mut self, major: bool) -> (u64, u64) {
        let (mut freed, mut promoted) = (0, 0);
        let mut dead = Vec::new();
        for i in 0..self.pages.len() {
            let page = &mut self.pages[i];
            for g in set_bits(page.starts) {
                let o = &mut page.objs[g];
                if o.marked {
                    if !o.old {
                        o.old = true;
                        promoted += 1;
                    }
                } else if major || !o.old {
                    dead.push((g, o.words));
                }
                o.marked = false;
            }
            freed += dead.len() as u64;
            for (g, words) in dead.drain(..) {
                self.unlink(i, g, words);
            }
        }

        let cur = self.cur_page;
        for i in 0..self.pages.len() {
            let page_addr = self.page_addr(i);
            let page = &mut self.pages[i];
            if page.gen.is_none() {
                continue;
            }
            if page.occupied() {
                page.gen = Some(BlockGen::Old);
            } else if Some(page_addr) != cur {
                page.gen = None;
                self.free_pages.push(page_addr);
            } else {
                page.gen = Some(BlockGen::Young);
            }
        }
        if cur.is_some_and(|p| self.generation(p) == Some(BlockGen::Old)) {
            self.cur_page = None;
            self.cur_off = 0;
        }
        (freed, promoted)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn value_encoding_round_trips() {
        for v in [
            Value::Int(0),
            Value::Int(42),
            Value::Int(-7),
            Value::Ref(ObjRef(0x1000_0010)),
            Value::Nil,
        ] {
            assert_eq!(Value::decode(v.encode()), v, "{v:?}");
        }
    }

    #[test]
    fn tagged_ints_never_look_like_pointers() {
        for n in [-1000, -1, 0, 1, 123456] {
            let w = Value::Int(n).encode();
            assert_eq!(w & 1, 1, "int {n} must be odd-tagged");
        }
    }

    #[test]
    fn find_object_handles_interior_pointers() {
        let mut s = HeapState::new(0x1000_0000, 0x10000);
        s.insert(
            0x1000_0100,
            Obj {
                words: 4,
                old: false,
                marked: false,
            },
        );
        assert_eq!(s.find_object(0x1000_0100), Some(0x1000_0100));
        assert_eq!(s.find_object(0x1000_0108), Some(0x1000_0100), "interior");
        assert_eq!(s.find_object(0x1000_0110), None, "past the end");
        assert_eq!(s.find_object(0x1000_00f0), None, "before");
        assert_eq!(s.find_object(0x1000_0102), None, "unaligned");
        assert_eq!(s.find_object(0x2000_0000), None, "outside heap");
    }

    #[test]
    fn new_state_tracks_all_pages_free() {
        let s = HeapState::new(0x1000_0000, 4 * PAGE_SIZE);
        assert_eq!(s.free_pages.len(), 4);
        assert!(s.contains(0x1000_0000));
        assert!(!s.contains(0x1000_4000));
    }

    #[test]
    fn large_object_covers_its_later_pages() {
        let mut s = HeapState::new(0x1000_0000, 8 * PAGE_SIZE);
        let run = s.take_free_run(3).unwrap();
        assert_eq!(run, 0x1000_0000, "lowest run first");
        // 2.5 pages of fields.
        let words = PAGE_SIZE / 4 * 5 / 2;
        s.insert(
            run,
            Obj {
                words,
                ..Obj::default()
            },
        );
        let end = run + words * 4;
        assert_eq!(s.find_object(run + PAGE_SIZE + 4), Some(run));
        assert_eq!(s.find_object(end - 4), Some(run));
        assert_eq!(s.find_object(end), None, "tail of the last page");
        assert!(s.occupied(run + 2 * PAGE_SIZE));
        s.remove(run);
        assert!(!s.occupied(run + 2 * PAGE_SIZE));
        assert_eq!(s.find_object(run + PAGE_SIZE + 4), None);
    }

    const HEAP: u32 = 0x1000_0000;
    const HEAP_PAGES: u32 = 24;

    /// The old object table, which the page table must reproduce.
    type Model = BTreeMap<u32, Obj>;

    fn model_find(m: &Model, word: u32) -> Option<u32> {
        if word & 3 != 0 || !(HEAP..HEAP + HEAP_PAGES * PAGE_SIZE).contains(&word) {
            return None;
        }
        let (base, obj) = m.range(..=word).next_back()?;
        (word < base + obj.words * 4).then_some(*base)
    }

    fn model_occupied(m: &Model, page: u32) -> bool {
        m.range(..page + PAGE_SIZE)
            .next_back()
            .is_some_and(|(b, o)| b + o.words * 4 > page)
    }

    /// Replays `ops` — `(0, w)` allocates `w` words bump-style as
    /// `Gc::alloc` does, `(1, w)` allocates `w` words as a page run as
    /// `Gc::alloc_large` does, `(2, k)` frees the `k`-th live object, and
    /// `(3, _)` sweeps with nothing marked — on the table and the model,
    /// comparing them after each step.
    fn replay(ops: &[(u8, u32)]) -> Result<(), TestCaseError> {
        let mut s = HeapState::new(HEAP, HEAP_PAGES * PAGE_SIZE);
        let mut m = Model::new();
        for &(op, arg) in ops {
            match op {
                0 => {
                    let words = arg % (PAGE_SIZE / 4) + 1;
                    let bytes = (words * 4 + 7) & !7;
                    if s.cur_page.is_none() || s.cur_off + bytes > PAGE_SIZE {
                        let Some(page) = s.take_free_page() else {
                            continue;
                        };
                        s.cur_page = Some(page);
                        s.cur_off = 0;
                    }
                    let addr = s.cur_page.unwrap() + s.cur_off;
                    s.cur_off += bytes;
                    let obj = Obj {
                        words,
                        ..Obj::default()
                    };
                    s.insert(addr, obj);
                    m.insert(addr, obj);
                }
                1 => {
                    let words = arg % (4 * PAGE_SIZE / 4) + 1;
                    let Some(run) = s.take_free_run((words * 4).div_ceil(PAGE_SIZE)) else {
                        continue;
                    };
                    let obj = Obj {
                        words,
                        old: true,
                        marked: false,
                    };
                    s.insert(run, obj);
                    m.insert(run, obj);
                }
                2 => {
                    let Some(&addr) = m.keys().nth(arg as usize % m.len().max(1)) else {
                        continue;
                    };
                    prop_assert_eq!(s.remove(addr), m.remove(&addr));
                }
                _ => {
                    // Everything unmarked dies; every emptied page except the
                    // allocation page goes back to the free stack.
                    let (freed, _) = s.sweep(true);
                    prop_assert_eq!(freed as usize, m.len());
                    m.clear();
                }
            }
            prop_assert_eq!(s.len(), m.len());
            let ours: Vec<(u32, Obj)> = s.iter().map(|(a, o)| (a, *o)).collect();
            let theirs: Vec<(u32, Obj)> = m.iter().map(|(a, o)| (*a, *o)).collect();
            prop_assert_eq!(ours, theirs);
            for p in 0..HEAP_PAGES {
                let page = HEAP + p * PAGE_SIZE;
                prop_assert_eq!(
                    s.occupied(page),
                    model_occupied(&m, page),
                    "page {:#x}",
                    page
                );
            }
            let mut probes = vec![
                HEAP - 4,
                HEAP + HEAP_PAGES * PAGE_SIZE,
                arg,
                HEAP + arg % 0x20000,
            ];
            for (&base, o) in &m {
                let end = base + o.words * 4;
                probes.extend([
                    base,
                    base + 2,
                    base + 4,
                    end - 4,
                    end,
                    end + 1,
                    base.wrapping_sub(4),
                ]);
                // Words inside a large object's later pages.
                probes.extend((base + PAGE_SIZE..end).step_by(PAGE_SIZE as usize / 2));
            }
            for word in probes {
                prop_assert_eq!(
                    s.find_object(word),
                    model_find(&m, word),
                    "word {:#x}",
                    word
                );
            }
        }
        Ok(())
    }

    proptest! {
        /// Random allocation, large-allocation, free and sweep sequences
        /// leave the page table agreeing with an address-ordered map on
        /// conservative lookups, per-page occupancy, the live count and
        /// iteration order.
        #[test]
        fn page_table_matches_btreemap_model(
            ops in prop::collection::vec((0u8..4, 0u32..0x1_0000), 1..120)
        ) {
            // Weight toward allocation so heaps fill and runs fragment.
            let ops: Vec<(u8, u32)> = ops
                .into_iter()
                .map(|(op, arg)| (if op == 3 && arg % 8 != 0 { 0 } else { op }, arg))
                .collect();
            replay(&ops)?;
        }
    }
}
