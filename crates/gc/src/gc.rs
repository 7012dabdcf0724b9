//! The collector: allocation, barriers, minor and major collections.

use std::cell::RefCell;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

use efex_core::{
    CoreError, FaultInfo, GuestMem, HandlerAction, HandlerSpec, HostProcess, Prot, Protection,
};
use efex_simos::layout::{PAGE_SIZE, SUBPAGE_SIZE};
use efex_simos::vm::FaultKind;
use efex_trace::{Snapshot, StatsSnapshot};

use crate::config::{BarrierKind, GcConfig};
use crate::heap::{BlockGen, HeapState, Obj, ObjRef, Value};

/// A page of zeros, the source for [`Gc::zero_pages`].
static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];

/// Collector statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Minor (young-generation) collections run.
    pub minor_collections: u64,
    /// Major (full) collections run.
    pub major_collections: u64,
    /// Objects allocated.
    pub objects_allocated: u64,
    /// Bytes allocated.
    pub bytes_allocated: u64,
    /// Objects reclaimed by sweeps.
    pub objects_freed: u64,
    /// Objects promoted to the old generation.
    pub objects_promoted: u64,
    /// Write-barrier faults delivered (page-protection barrier).
    pub barrier_faults: u64,
    /// Software checks executed (software-check barrier).
    pub software_checks: u64,
    /// Old-to-young slots recorded.
    pub remembered_slots: u64,
}

impl Snapshot for GcStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::new("gc")
            .counter("minor_collections", self.minor_collections)
            .counter("major_collections", self.major_collections)
            .counter("objects_allocated", self.objects_allocated)
            .counter("bytes_allocated", self.bytes_allocated)
            .counter("objects_freed", self.objects_freed)
            .counter("objects_promoted", self.objects_promoted)
            .counter("barrier_faults", self.barrier_faults)
            .counter("software_checks", self.software_checks)
            .counter("remembered_slots", self.remembered_slots)
    }
}

/// Collector errors.
#[derive(Debug)]
pub enum GcError {
    /// The heap is exhausted even after a full collection.
    OutOfMemory,
    /// A field index was out of bounds for the object.
    BadField {
        /// The object whose field was addressed.
        obj: ObjRef,
        /// The out-of-range field index.
        index: u32,
        /// The object's field count.
        size: u32,
    },
    /// An underlying simulation error.
    Core(CoreError),
}

impl fmt::Display for GcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GcError::OutOfMemory => f.write_str("heap exhausted"),
            GcError::BadField { obj, index, size } => write!(
                f,
                "field {index} out of bounds for object {:#x} of {size} words",
                obj.addr()
            ),
            GcError::Core(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl Error for GcError {}

impl From<CoreError> for GcError {
    fn from(e: CoreError) -> GcError {
        GcError::Core(e)
    }
}

/// The conservative generational collector.
pub struct Gc {
    host: HostProcess,
    st: Rc<RefCell<HeapState>>,
    cfg: GcConfig,
    stats: GcStats,
    collections: u64,
}

impl fmt::Debug for Gc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gc")
            .field("barrier", &self.cfg.barrier)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Gc {
    /// Creates a collector with the given configuration.
    ///
    /// # Errors
    ///
    /// Fails if the simulated system cannot boot or the heap cannot be
    /// mapped.
    pub fn new(cfg: GcConfig) -> Result<Gc, GcError> {
        let mut host = HostProcess::builder()
            .delivery(cfg.path)
            .eager_amplification(
                cfg.eager_amplification && cfg.barrier == BarrierKind::PageProtection,
            )
            .build()?;
        let heap_bytes = (cfg.heap_bytes + PAGE_SIZE - 1) & !(PAGE_SIZE - 1);
        let base = host.alloc_region(heap_bytes, Prot::ReadWrite)?;
        let st = Rc::new(RefCell::new(HeapState::new(base, heap_bytes)));

        match cfg.barrier {
            BarrierKind::PageProtection => {
                let state = Rc::clone(&st);
                let eager = cfg.eager_amplification;
                host.set_handler(
                    HandlerSpec::new(move |ctx, info: FaultInfo| {
                        let mut s = state.borrow_mut();
                        if info.write
                            && info.kind == FaultKind::Protection
                            && s.contains(info.vaddr)
                        {
                            let page = HeapState::page_of(info.vaddr);
                            s.mark_dirty(info.vaddr);
                            if !eager {
                                // Without eager amplification the handler must
                                // re-enable access itself before retrying.
                                if ctx
                                    .protect(Protection::region(page, PAGE_SIZE).read_write())
                                    .is_err()
                                {
                                    return HandlerAction::Abort;
                                }
                            }
                            HandlerAction::Retry
                        } else {
                            HandlerAction::Abort
                        }
                    })
                    .named("gc-page-barrier"),
                );
            }
            BarrierKind::SubpageProtection => {
                let state = Rc::clone(&st);
                host.set_handler(
                    HandlerSpec::new(move |ctx, info: FaultInfo| {
                        let mut s = state.borrow_mut();
                        if info.write
                            && info.kind == FaultKind::Protection
                            && s.contains(info.vaddr)
                        {
                            let sub = info.vaddr & !(SUBPAGE_SIZE - 1);
                            s.mark_dirty(info.vaddr);
                            // Release only this 1 KB subpage: the rest of the
                            // page keeps faulting (or being kernel-emulated)
                            // so dirty tracking stays fine-grained.
                            if ctx
                                .subpage_protect(Protection::region(sub, SUBPAGE_SIZE).read_write())
                                .is_err()
                            {
                                return HandlerAction::Abort;
                            }
                            HandlerAction::Retry
                        } else {
                            HandlerAction::Abort
                        }
                    })
                    .named("gc-subpage-barrier"),
                );
            }
            BarrierKind::SoftwareCheck => {}
        }

        Ok(Gc {
            host,
            st,
            cfg,
            stats: GcStats::default(),
            collections: 0,
        })
    }

    /// The collector's statistics (barrier faults are read live from the
    /// host process).
    pub fn stats(&self) -> GcStats {
        let mut s = self.stats;
        s.barrier_faults = self.host.stats().faults_delivered;
        s
    }

    /// Per-(path, class) exception metrics for the barrier faults the
    /// collector took (histograms, per-page counts).
    pub fn trace_metrics(&self) -> &efex_trace::Metrics {
        self.host.trace_metrics()
    }

    /// Health-plane snapshot of the host kernel underneath the collector
    /// (decode cache, TLB repairs, degraded deliveries). Pure read.
    pub fn health_snapshot(&self) -> efex_trace::StatsSnapshot {
        self.host.health_snapshot()
    }

    /// Simulated time elapsed, µs.
    pub fn micros(&self) -> f64 {
        self.host.micros()
    }

    /// Simulated cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.host.cycles()
    }

    /// The configuration in force.
    pub fn config(&self) -> &GcConfig {
        &self.cfg
    }

    /// Fault injection: the next `n` barrier-fault deliveries fall back to
    /// Unix-signal costs (counted in [`Gc::degraded_deliveries`]). The
    /// collector must survive with identical heap contents — only dearer.
    pub fn inject_degrade_next_deliveries(&mut self, n: u64) {
        self.host.inject_degrade_next_deliveries(n);
    }

    /// Barrier deliveries that fell back to the degraded (Unix-cost) path.
    pub fn degraded_deliveries(&self) -> u64 {
        self.host.stats().degraded_deliveries
    }

    /// Charges application (mutator) compute cycles — workloads model their
    /// own non-heap work through this.
    pub fn charge_app(&mut self, cycles: u64) {
        self.host.charge(cycles);
    }

    /// Registers a root (a stack discipline: see [`Gc::pop_root`]).
    pub fn push_root(&mut self, obj: ObjRef) {
        self.st.borrow_mut().roots.push(obj.addr());
    }

    /// Unregisters the most recently pushed root.
    pub fn pop_root(&mut self) -> Option<ObjRef> {
        self.st.borrow_mut().roots.pop().map(ObjRef)
    }

    /// Number of live objects in the table.
    pub fn live_objects(&self) -> usize {
        self.st.borrow().len()
    }

    // --- allocation --------------------------------------------------------

    /// Allocates a `words`-field object in the young generation, running
    /// collections as needed. Fields start as [`Value::Nil`].
    ///
    /// # Errors
    ///
    /// Returns [`GcError::OutOfMemory`] when even a major collection cannot
    /// find room.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero or the object would exceed one page — use
    /// [`Gc::alloc_large`] for page-spanning objects.
    pub fn alloc(&mut self, words: u32) -> Result<ObjRef, GcError> {
        assert!(words > 0 && words * 4 <= PAGE_SIZE, "use alloc_large");
        if self.st.borrow().bytes_since_minor >= self.cfg.minor_threshold {
            self.collect();
        }
        self.host.charge(self.cfg.alloc_cycles);
        let bytes = (words * 4 + 7) & !7;
        // Fit in the current page, or take a fresh one.
        let need_new_page = {
            let s = self.st.borrow();
            match s.cur_page {
                Some(_) => s.cur_off + bytes > PAGE_SIZE,
                None => true,
            }
        };
        if need_new_page && !self.take_young_page()? {
            // Collect and retry once.
            self.collect_major();
            if !self.take_young_page()? {
                return Err(GcError::OutOfMemory);
            }
        }
        let addr = {
            let mut s = self.st.borrow_mut();
            let page = s.cur_page.expect("just ensured");
            let addr = page + s.cur_off;
            s.cur_off += bytes;
            s.bytes_since_minor += bytes;
            s.insert(
                addr,
                Obj {
                    words,
                    old: false,
                    marked: false,
                },
            );
            addr
        };
        self.stats.objects_allocated += 1;
        self.stats.bytes_allocated += u64::from(bytes);
        Ok(ObjRef(addr))
    }

    /// Allocates a large object spanning whole pages (e.g. the 1 MB array
    /// of the Table 4 benchmark).
    ///
    /// # Errors
    ///
    /// Returns [`GcError::OutOfMemory`] if no contiguous run of pages is
    /// free.
    pub fn alloc_large(&mut self, words: u32) -> Result<ObjRef, GcError> {
        let pages = (words * 4).div_ceil(PAGE_SIZE);
        self.host.charge(self.cfg.alloc_cycles * u64::from(pages));
        let run = {
            let mut s = self.st.borrow_mut();
            let run = s.take_free_run(pages).ok_or(GcError::OutOfMemory)?;
            s.insert(
                run,
                Obj {
                    words,
                    old: false,
                    marked: false,
                },
            );
            run
        };
        self.zero_pages(run, pages)?;
        self.stats.objects_allocated += 1;
        self.stats.bytes_allocated += u64::from(words) * 4;
        Ok(ObjRef(run))
    }

    /// Immediately tenures an object (the Table 4 array benchmark places
    /// its array in the old generation before the measured phase).
    pub fn promote(&mut self, obj: ObjRef) {
        let mut s = self.st.borrow_mut();
        let Some(o) = s.get_mut(obj.addr()) else {
            return;
        };
        o.old = true;
        let words = o.words;
        let first = HeapState::page_of(obj.addr());
        let last = HeapState::page_of(obj.addr() + words * 4 - 1);
        for page in (first..=last).step_by(PAGE_SIZE as usize) {
            s.set_generation(page, BlockGen::Old);
        }
        // The current allocation page may have just become old: retire it.
        if s.cur_page.is_some_and(|p| (first..=last).contains(&p)) {
            s.cur_page = None;
            s.cur_off = 0;
        }
        drop(s);
        self.stats.objects_promoted += 1;
    }

    fn take_young_page(&mut self) -> Result<bool, GcError> {
        let page = {
            let mut s = self.st.borrow_mut();
            let Some(p) = s.take_free_page() else {
                return Ok(false);
            };
            s.cur_page = Some(p);
            s.cur_off = 0;
            p
        };
        self.zero_pages(page, 1)?;
        Ok(true)
    }

    fn zero_pages(&mut self, base: u32, pages: u32) -> Result<(), GcError> {
        // Model a block-zeroing loop: one cycle per word.
        self.host
            .charge(u64::from(pages) * u64::from(PAGE_SIZE / 4));
        for i in 0..pages {
            self.host
                .kernel_mut()
                .host_write_bytes(base + i * PAGE_SIZE, &ZERO_PAGE)
                .map_err(CoreError::from)?;
        }
        Ok(())
    }

    // --- field access --------------------------------------------------------

    /// Stores a value into `obj.fields[index]`, applying the write barrier.
    ///
    /// # Errors
    ///
    /// Fails on bad indices or unrecoverable faults.
    pub fn store(&mut self, obj: ObjRef, index: u32, value: Value) -> Result<(), GcError> {
        let (size, old) = self.object_info(obj)?;
        if index >= size {
            return Err(GcError::BadField { obj, index, size });
        }
        let addr = obj.addr() + index * 4;
        if self.cfg.barrier == BarrierKind::SoftwareCheck {
            // The per-store check the paper's alternative performs.
            self.host.charge(self.cfg.check_cycles);
            self.stats.software_checks += 1;
            if old && matches!(value, Value::Ref(_)) {
                self.st.borrow_mut().ssb.push(addr);
                self.stats.remembered_slots += 1;
            }
        }
        self.host.store_u32(addr, value.encode())?;
        Ok(())
    }

    /// Loads `obj.fields[index]`.
    ///
    /// # Errors
    ///
    /// Fails on bad indices or unrecoverable faults.
    pub fn load(&mut self, obj: ObjRef, index: u32) -> Result<Value, GcError> {
        let (size, _) = self.object_info(obj)?;
        if index >= size {
            return Err(GcError::BadField { obj, index, size });
        }
        Ok(Value::decode(self.host.load_u32(obj.addr() + index * 4)?))
    }

    fn object_info(&self, obj: ObjRef) -> Result<(u32, bool), GcError> {
        let s = self.st.borrow();
        let o = s.get(obj.addr()).ok_or(GcError::BadField {
            obj,
            index: 0,
            size: 0,
        })?;
        Ok((o.words, o.old))
    }

    // --- collection ------------------------------------------------------------

    /// Runs a collection: minor, or major every `major_every`th time.
    pub fn collect(&mut self) {
        self.collections += 1;
        if self.cfg.major_every > 0
            && self
                .collections
                .is_multiple_of(u64::from(self.cfg.major_every))
        {
            self.collect_major();
        } else {
            self.collect_minor();
        }
    }

    /// Minor collection: trace the young generation from roots plus the
    /// recorded old-to-young pointers, sweep young pages, promote
    /// survivors, and re-protect the old generation.
    pub fn collect_minor(&mut self) {
        self.stats.minor_collections += 1;
        let mut gray: Vec<u32> = Vec::new();

        // Roots that point at young objects.
        {
            let s = self.st.borrow();
            for r in &s.roots {
                if let Some((base, o)) = s.find(*r) {
                    if !o.old {
                        gray.push(base);
                    }
                }
            }
        }

        // Old-to-young pointers from the barrier's records.
        match self.cfg.barrier {
            BarrierKind::PageProtection => {
                let dirty = self.st.borrow().dirty_pages();
                for page in dirty {
                    self.scan_range_for_young(page, page + PAGE_SIZE, &mut gray);
                }
            }
            BarrierKind::SubpageProtection => {
                // Dirty entries are 1 KB subpages: a quarter of the scan.
                let dirty = self.st.borrow().dirty_subpages();
                for sub in dirty {
                    self.scan_range_for_young(sub, sub + SUBPAGE_SIZE, &mut gray);
                }
            }
            BarrierKind::SoftwareCheck => {
                let slots: Vec<u32> = std::mem::take(&mut self.st.borrow_mut().ssb);
                self.host.charge(self.cfg.scan_cycles * slots.len() as u64);
                for slot in slots {
                    if let Ok(word) = self.host.read_raw(slot) {
                        if let Some((base, o)) = self.st.borrow().find(word) {
                            if !o.old {
                                gray.push(base);
                            }
                        }
                    }
                }
            }
        }

        self.trace(gray, false);
        self.sweep(false);
        self.reprotect_old();
        self.st.borrow_mut().bytes_since_minor = 0;
    }

    /// Major collection: trace everything from roots, sweep both
    /// generations, and re-protect the old generation.
    pub fn collect_major(&mut self) {
        self.stats.major_collections += 1;
        let gray: Vec<u32> = {
            let s = self.st.borrow();
            s.roots.iter().filter_map(|r| s.find_object(*r)).collect()
        };
        self.trace(gray, true);
        self.sweep(true);
        self.reprotect_old();
        let mut s = self.st.borrow_mut();
        s.bytes_since_minor = 0;
        s.ssb.clear();
    }

    /// Scans `[from, to)` for references to young objects.
    fn scan_range_for_young(&mut self, from: u32, to: u32, gray: &mut Vec<u32>) {
        let words = u64::from((to - from) / 4);
        self.host.charge(self.cfg.scan_cycles * words);
        let st = &self.st;
        for_each_word(
            &mut self.host,
            &mut [0; PAGE_SIZE as usize],
            from,
            to,
            |word| {
                if let Some((base, o)) = st.borrow().find(word) {
                    if !o.old {
                        gray.push(base);
                    }
                }
            },
        );
    }

    /// Marks transitively. With `trace_old` false (minor), traversal stays
    /// within the young generation (old objects are implicitly live and
    /// their young references are covered by the remembered records).
    fn trace(&mut self, mut gray: Vec<u32>, trace_old: bool) {
        let mut page: PageBuf = [0; PAGE_SIZE as usize];
        while let Some(base) = gray.pop() {
            let words = {
                let mut s = self.st.borrow_mut();
                let Some(o) = s.get_mut(base) else {
                    continue;
                };
                if o.marked || (!trace_old && o.old) {
                    continue;
                }
                o.marked = true;
                o.words
            };
            self.host.charge(self.cfg.mark_cycles);
            self.host.charge(self.cfg.scan_cycles * u64::from(words));
            let st = &self.st;
            for_each_word(&mut self.host, &mut page, base, base + words * 4, |word| {
                if let Some((target, o)) = st.borrow().find(word) {
                    if !o.marked && (trace_old || !o.old) {
                        gray.push(target);
                    }
                }
            });
        }
    }

    /// Sweeps: frees unmarked objects (young only on minor collections),
    /// promotes marked young objects, releases empty pages, clears marks.
    fn sweep(&mut self, major: bool) {
        let (freed, promoted) = self.st.borrow_mut().sweep(major);
        self.stats.objects_freed += freed;
        self.stats.objects_promoted += promoted;
    }

    /// Write-protects every old page (protection barriers) and clears the
    /// dirty set; contiguous runs are protected with single calls, as
    /// `mprotect` would be used in practice.
    fn reprotect_old(&mut self) {
        if self.cfg.barrier == BarrierKind::SoftwareCheck {
            self.st.borrow_mut().clear_dirty();
            return;
        }
        let old_pages = {
            let mut s = self.st.borrow_mut();
            s.clear_dirty();
            s.old_pages()
        };
        let mut i = 0;
        while i < old_pages.len() {
            let start = old_pages[i];
            let mut end = start + PAGE_SIZE;
            while i + 1 < old_pages.len() && old_pages[i + 1] == end {
                end += PAGE_SIZE;
                i += 1;
            }
            // Failures here would mean the heap region is unmapped — a
            // simulator bug; surface loudly in debug builds.
            let r = match self.cfg.barrier {
                BarrierKind::PageProtection => self
                    .host
                    .protect(Protection::region(start, end - start).read_only()),
                BarrierKind::SubpageProtection => self
                    .host
                    .subpage_protect(Protection::region(start, end - start).read_only()),
                BarrierKind::SoftwareCheck => unreachable!("handled above"),
            };
            debug_assert!(r.is_ok(), "reprotect failed: {r:?}");
            i += 1;
        }
    }
}

/// One page of host memory for [`for_each_word`].
type PageBuf = [u8; PAGE_SIZE as usize];

/// Calls `visit` on each word of `[from, to)`, reading it from the host a
/// page at a time, with kernel rights, through `page`. The words of a page
/// that cannot be read are skipped, as a `read_raw` per word would skip
/// them.
fn for_each_word(
    host: &mut HostProcess,
    page: &mut PageBuf,
    from: u32,
    to: u32,
    mut visit: impl FnMut(u32),
) {
    let mut addr = from;
    while addr < to {
        let end = (addr & !(PAGE_SIZE - 1)).saturating_add(PAGE_SIZE).min(to);
        let span = &mut page[..(end - addr) as usize];
        if host.read_raw_into(addr, span).is_ok() {
            for word in span.chunks_exact(4) {
                visit(u32::from_le_bytes(word.try_into().expect("4 bytes")));
            }
        }
        addr = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gc_with(barrier: BarrierKind, eager: bool) -> Gc {
        Gc::new(GcConfig {
            barrier,
            eager_amplification: eager,
            heap_bytes: 512 * 1024,
            minor_threshold: 64 * 1024,
            ..GcConfig::default()
        })
        .unwrap()
    }

    fn cons(gc: &mut Gc, car: Value, cdr: Value) -> ObjRef {
        let c = gc.alloc(2).unwrap();
        gc.store(c, 0, car).unwrap();
        gc.store(c, 1, cdr).unwrap();
        c
    }

    #[test]
    fn alloc_store_load_round_trip() {
        let mut gc = gc_with(BarrierKind::PageProtection, true);
        let obj = gc.alloc(3).unwrap();
        gc.store(obj, 0, Value::Int(41)).unwrap();
        gc.store(obj, 2, Value::Ref(obj)).unwrap();
        assert_eq!(gc.load(obj, 0).unwrap(), Value::Int(41));
        assert_eq!(gc.load(obj, 1).unwrap(), Value::Nil);
        assert_eq!(gc.load(obj, 2).unwrap(), Value::Ref(obj));
        assert!(matches!(
            gc.store(obj, 3, Value::Nil),
            Err(GcError::BadField { .. })
        ));
    }

    #[test]
    fn unreachable_objects_are_collected() {
        let mut gc = gc_with(BarrierKind::PageProtection, true);
        let keep = cons(&mut gc, Value::Int(1), Value::Nil);
        gc.push_root(keep);
        for _ in 0..100 {
            let _garbage = cons(&mut gc, Value::Int(2), Value::Nil);
        }
        let before = gc.live_objects();
        gc.collect_major();
        let after = gc.live_objects();
        assert!(after < before, "{before} -> {after}");
        assert_eq!(gc.load(keep, 0).unwrap(), Value::Int(1), "root survives");
    }

    #[test]
    fn reachable_chain_survives_minor_collection() {
        let mut gc = gc_with(BarrierKind::PageProtection, true);
        // head -> a -> b -> c (all young).
        let c = cons(&mut gc, Value::Int(3), Value::Nil);
        let b = cons(&mut gc, Value::Int(2), Value::Ref(c));
        let a = cons(&mut gc, Value::Int(1), Value::Ref(b));
        gc.push_root(a);
        gc.collect_minor();
        assert_eq!(gc.load(a, 0).unwrap(), Value::Int(1));
        let Value::Ref(b2) = gc.load(a, 1).unwrap() else {
            panic!()
        };
        assert_eq!(gc.load(b2, 0).unwrap(), Value::Int(2));
        let Value::Ref(c2) = gc.load(b2, 1).unwrap() else {
            panic!()
        };
        assert_eq!(gc.load(c2, 0).unwrap(), Value::Int(3));
    }

    #[test]
    fn old_to_young_pointer_is_tracked_by_page_barrier() {
        let mut gc = gc_with(BarrierKind::PageProtection, true);
        let old = cons(&mut gc, Value::Int(10), Value::Nil);
        gc.push_root(old);
        gc.collect_minor(); // promotes `old` and write-protects its page
                            // A young object referenced ONLY from the old object.
        let young = cons(&mut gc, Value::Int(20), Value::Nil);
        gc.store(old, 1, Value::Ref(young)).unwrap(); // faults -> dirty page
        assert!(gc.stats().barrier_faults >= 1, "barrier must fault");
        gc.collect_minor();
        // The young object must have survived via the remembered set.
        let Value::Ref(y2) = gc.load(old, 1).unwrap() else {
            panic!()
        };
        assert_eq!(gc.load(y2, 0).unwrap(), Value::Int(20));
    }

    #[test]
    fn degraded_barrier_delivery_preserves_heap_contents() {
        // Inject one delivery-path degradation: the barrier fault falls
        // back to Unix-signal costs but the remembered set must come out
        // identical — the collector survives, it just pays more.
        let mut gc = gc_with(BarrierKind::PageProtection, true);
        let old = cons(&mut gc, Value::Int(10), Value::Nil);
        gc.push_root(old);
        gc.collect_minor();
        let young = cons(&mut gc, Value::Int(20), Value::Nil);
        gc.inject_degrade_next_deliveries(1);
        gc.store(old, 1, Value::Ref(young)).unwrap();
        assert_eq!(gc.degraded_deliveries(), 1);
        assert!(gc.stats().barrier_faults >= 1);
        gc.collect_minor();
        let Value::Ref(y2) = gc.load(old, 1).unwrap() else {
            panic!()
        };
        assert_eq!(gc.load(y2, 0).unwrap(), Value::Int(20));
    }

    #[test]
    fn old_to_young_pointer_is_tracked_by_software_checks() {
        let mut gc = gc_with(BarrierKind::SoftwareCheck, false);
        let old = cons(&mut gc, Value::Int(10), Value::Nil);
        gc.push_root(old);
        gc.collect_minor();
        let young = cons(&mut gc, Value::Int(20), Value::Nil);
        gc.store(old, 1, Value::Ref(young)).unwrap();
        assert_eq!(gc.stats().barrier_faults, 0, "no faults in check mode");
        assert!(gc.stats().software_checks > 0);
        assert!(gc.stats().remembered_slots >= 1);
        gc.collect_minor();
        let Value::Ref(y2) = gc.load(old, 1).unwrap() else {
            panic!()
        };
        assert_eq!(gc.load(y2, 0).unwrap(), Value::Int(20));
    }

    #[test]
    fn second_store_to_dirty_page_does_not_fault_again() {
        let mut gc = gc_with(BarrierKind::PageProtection, true);
        let old = cons(&mut gc, Value::Int(1), Value::Nil);
        gc.push_root(old);
        gc.collect_minor();
        gc.store(old, 0, Value::Int(2)).unwrap();
        let f1 = gc.stats().barrier_faults;
        gc.store(old, 1, Value::Int(3)).unwrap();
        assert_eq!(gc.stats().barrier_faults, f1, "page already amplified");
    }

    #[test]
    fn non_eager_barrier_unprotects_in_handler() {
        let mut gc = gc_with(BarrierKind::PageProtection, false);
        let old = cons(&mut gc, Value::Int(1), Value::Nil);
        gc.push_root(old);
        gc.collect_minor();
        gc.store(old, 0, Value::Int(2)).unwrap();
        assert!(gc.stats().barrier_faults >= 1);
        assert_eq!(gc.load(old, 0).unwrap(), Value::Int(2));
    }

    #[test]
    fn large_object_allocation_and_promotion() {
        let mut gc = gc_with(BarrierKind::PageProtection, true);
        // A 4-page array.
        let arr = gc.alloc_large(4096).unwrap();
        gc.push_root(arr);
        gc.promote(arr);
        gc.collect_minor(); // protects the array's pages
        gc.store(arr, 2000, Value::Int(7)).unwrap(); // faults once
        assert!(gc.stats().barrier_faults >= 1);
        assert_eq!(gc.load(arr, 2000).unwrap(), Value::Int(7));
        assert_eq!(gc.load(arr, 0).unwrap(), Value::Nil);
    }

    #[test]
    fn heap_reuses_pages_after_collection() {
        let mut gc = Gc::new(GcConfig {
            heap_bytes: 128 * 1024, // 32 pages
            minor_threshold: 16 * 1024,
            major_every: 2,
            ..GcConfig::default()
        })
        .unwrap();
        // Allocate far more than the heap in total; everything is garbage.
        for i in 0..4000 {
            let o = gc.alloc(4).unwrap();
            gc.store(o, 0, Value::Int(i)).unwrap();
        }
        assert!(gc.stats().minor_collections + gc.stats().major_collections > 2);
        assert!(gc.stats().objects_freed > 3000);
    }

    #[test]
    fn interior_pointers_keep_objects_alive() {
        let mut gc = gc_with(BarrierKind::PageProtection, true);
        let obj = gc.alloc(8).unwrap();
        // Register an INTERIOR address as the root (conservative collection
        // must still find the object).
        gc.push_root(ObjRef(obj.addr() + 12));
        gc.collect_major();
        assert!(
            gc.load(obj, 0).is_ok(),
            "object reachable only via interior pointer must survive"
        );
    }
}

#[cfg(test)]
mod subpage_barrier_tests {
    use super::*;

    fn gc_sub() -> Gc {
        Gc::new(GcConfig {
            barrier: BarrierKind::SubpageProtection,
            eager_amplification: false,
            heap_bytes: 512 * 1024,
            minor_threshold: 64 * 1024,
            ..GcConfig::default()
        })
        .unwrap()
    }

    fn cons(gc: &mut Gc, car: Value, cdr: Value) -> ObjRef {
        let c = gc.alloc(2).unwrap();
        gc.store(c, 0, car).unwrap();
        gc.store(c, 1, cdr).unwrap();
        c
    }

    #[test]
    fn subpage_barrier_tracks_old_to_young() {
        let mut gc = gc_sub();
        let old = cons(&mut gc, Value::Int(10), Value::Nil);
        gc.push_root(old);
        gc.collect_minor(); // promotes and subpage-protects
        let young = cons(&mut gc, Value::Int(20), Value::Nil);
        gc.store(old, 1, Value::Ref(young)).unwrap(); // faults on the subpage
        assert!(gc.stats().barrier_faults >= 1);
        gc.collect_minor();
        let Value::Ref(y2) = gc.load(old, 1).unwrap() else {
            panic!()
        };
        assert_eq!(gc.load(y2, 0).unwrap(), Value::Int(20));
    }

    #[test]
    fn subpage_dirty_granularity_is_1k() {
        let mut gc = gc_sub();
        // A 4-page old array.
        let arr = gc.alloc_large(4096).unwrap();
        gc.push_root(arr);
        gc.promote(arr);
        gc.collect_minor();
        // Two stores into the SAME 1 KB subpage: one fault.
        gc.store(arr, 0, Value::Int(1)).unwrap();
        gc.store(arr, 4, Value::Int(2)).unwrap();
        let f1 = gc.stats().barrier_faults;
        assert_eq!(f1, 1, "second store hit the released subpage");
        // A store into the NEXT subpage of the same hardware page: another
        // delivery (page-granularity would have been silent).
        gc.store(arr, 300, Value::Int(3)).unwrap();
        assert_eq!(gc.stats().barrier_faults, 2);
        // All three stores landed.
        assert_eq!(gc.load(arr, 0).unwrap(), Value::Int(1));
        assert_eq!(gc.load(arr, 4).unwrap(), Value::Int(2));
        assert_eq!(gc.load(arr, 300).unwrap(), Value::Int(3));
    }

    #[test]
    fn subpage_barrier_scans_less_than_page_barrier() {
        // One dirtying store per old page; minor GC scan work differs 4x.
        let run = |barrier| {
            let mut gc = Gc::new(GcConfig {
                barrier,
                eager_amplification: false,
                heap_bytes: 512 * 1024,
                minor_threshold: 256 * 1024, // no automatic GCs
                ..GcConfig::default()
            })
            .unwrap();
            let arr = gc.alloc_large(8 * 1024).unwrap(); // 8 pages
            gc.push_root(arr);
            gc.promote(arr);
            gc.collect_minor();
            for p in 0..8 {
                gc.store(arr, p * 1024, Value::Int(p as i32)).unwrap();
            }
            let before = gc.cycles();
            gc.collect_minor();
            gc.cycles() - before
        };
        let page = run(BarrierKind::PageProtection);
        let sub = run(BarrierKind::SubpageProtection);
        assert!(
            sub < page,
            "subpage scan must be cheaper: {sub} vs {page} cycles"
        );
    }
}
