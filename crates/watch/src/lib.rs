//! # efex-watch — conditional data watchpoints over fast exceptions
//!
//! Conditional watchpoints (Wahbe 1992) are one of the exception-based
//! techniques the paper's introduction motivates: a debugger watches a
//! variable by protecting the page that holds it; every store to the page
//! faults, the handler checks whether the access actually touched a
//! watched location (and whether the user's condition holds), then
//! **emulates the access and continues with the protection still in
//! place**. The technique is practical exactly in proportion to exception
//! cost — on the Unix signal path a watched page turns every store on it
//! into ~100 µs; on the paper's fast path it is a few microseconds.
//!
//! Two refinements from the paper are used:
//!
//! - **subpage narrowing** (Section 3.2.4): the watched page is managed at
//!   1 KB granularity, so stores to the three unwatched quarters of the
//!   page are emulated by the *kernel* and never reach the debugger at all
//!   — cutting the false-hit cost;
//! - the debugger's handler completes the faulting access itself
//!   ([`efex_core::HandlerAction::Emulate`]) rather than unprotecting and
//!   reprotecting, so watch coverage never lapses.
//!
//! # Example
//!
//! ```
//! use efex_core::DeliveryPath;
//! use efex_watch::Debugger;
//!
//! # fn main() -> Result<(), efex_watch::WatchError> {
//! let mut dbg = Debugger::new(DeliveryPath::FastUser, true)?;
//! let mem = dbg.alloc(4096)?;
//! dbg.store(mem, 10)?;
//! let w = dbg.watch_write(mem, 4, |old, new| new > old)?;
//! dbg.store(mem, 5)?;   // decreasing: no hit
//! dbg.store(mem, 50)?;  // increasing: hit
//! assert_eq!(dbg.hit_count(w)?, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use std::cell::RefCell;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

use efex_core::{
    CoreError, DeliveryPath, FaultInfo, GuestMem, HandlerAction, HandlerSpec, HostProcess, Prot,
    Protection, WorkloadRun,
};
use efex_simos::layout::{PAGE_SIZE, SUBPAGE_SIZE};
use efex_simos::vm::FaultKind;
use efex_trace::{Snapshot, StatsSnapshot};

/// A recorded watchpoint hit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WatchHit {
    /// Which watch fired.
    pub watch: WatchId,
    /// The accessed address.
    pub vaddr: u32,
    /// The previous value of the watched word.
    pub old: u32,
    /// The value being stored.
    pub new: u32,
}

/// Identifies a watchpoint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct WatchId(usize);

/// Watchpoint errors.
#[derive(Debug)]
pub enum WatchError {
    /// Underlying simulation error.
    Core(CoreError),
    /// The range is empty or not word-aligned.
    BadRange {
        /// Start of the rejected range.
        addr: u32,
        /// Its length in bytes.
        len: u32,
    },
    /// Unknown watch id.
    NoSuchWatch(WatchId),
}

impl fmt::Display for WatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WatchError::Core(e) => write!(f, "simulation error: {e}"),
            WatchError::BadRange { addr, len } => {
                write!(f, "bad watch range {addr:#x}+{len:#x}")
            }
            WatchError::NoSuchWatch(id) => write!(f, "no such watch {id:?}"),
        }
    }
}

impl Error for WatchError {}

impl From<CoreError> for WatchError {
    fn from(e: CoreError) -> WatchError {
        WatchError::Core(e)
    }
}

/// A condition evaluated on each candidate hit: `(old, new) -> fire?`.
type Condition = Box<dyn Fn(u32, u32) -> bool>;

struct Watch {
    start: u32,
    end: u32,
    condition: Condition,
    enabled: bool,
    hits: u64,
}

#[derive(Default)]
struct Shared {
    watches: Vec<Watch>,
    hits: Vec<WatchHit>,
    /// Stores delivered to the debugger that touched no watched word
    /// (false hits — same page/subpage, different address).
    false_hits: u64,
}

impl Shared {
    fn matching(&self, vaddr: u32) -> Option<usize> {
        self.watches
            .iter()
            .position(|w| w.enabled && vaddr >= w.start && vaddr < w.end)
    }
}

/// Statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WatchStats {
    /// Condition-true hits recorded.
    pub hits: u64,
    /// Faults delivered to the debugger that touched no watched word.
    pub false_hits: u64,
    /// Faults the kernel's subpage engine absorbed without involving the
    /// debugger at all.
    pub kernel_absorbed: u64,
    /// Total exceptions delivered.
    pub faults: u64,
}

impl Snapshot for WatchStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::new("watch")
            .counter("hits", self.hits)
            .counter("false_hits", self.false_hits)
            .counter("kernel_absorbed", self.kernel_absorbed)
            .counter("faults", self.faults)
    }
}

/// A debugger session: a protected address space plus watchpoints.
pub struct Debugger {
    host: HostProcess,
    shared: Rc<RefCell<Shared>>,
    use_subpages: bool,
}

impl fmt::Debug for Debugger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Debugger")
            .field("watches", &self.shared.borrow().watches.len())
            .finish_non_exhaustive()
    }
}

impl Debugger {
    /// Creates a debugger session on the given delivery path. With
    /// `use_subpages`, watched regions are protected at 1 KB granularity
    /// and off-subpage stores are absorbed in the kernel.
    ///
    /// # Errors
    ///
    /// Fails if the simulated system cannot boot.
    pub fn new(path: DeliveryPath, use_subpages: bool) -> Result<Debugger, WatchError> {
        let mut host = HostProcess::builder().delivery(path).build()?;
        let shared: Rc<RefCell<Shared>> = Rc::default();
        let st = Rc::clone(&shared);
        host.set_handler(
            HandlerSpec::new(move |ctx, info: FaultInfo| {
                if !(info.write && info.kind == FaultKind::Protection) {
                    return HandlerAction::Abort;
                }
                let mut s = st.borrow_mut();
                // The condition check models a handful of debugger
                // instructions.
                ctx.charge(10);
                if let Some(idx) = s.matching(info.vaddr) {
                    let old = ctx.read_raw(info.vaddr & !3).unwrap_or(0);
                    let new = info.value.unwrap_or(0);
                    if (s.watches[idx].condition)(old, new) {
                        s.watches[idx].hits += 1;
                        s.hits.push(WatchHit {
                            watch: WatchId(idx),
                            vaddr: info.vaddr,
                            old,
                            new,
                        });
                    }
                } else {
                    s.false_hits += 1;
                }
                // Complete the store and keep the page protected.
                HandlerAction::Emulate
            })
            .named("watchpoint"),
        );
        Ok(Debugger {
            host,
            shared,
            use_subpages,
        })
    }

    /// Allocates debuggee memory.
    ///
    /// # Errors
    ///
    /// Fails if the region cannot be mapped.
    pub fn alloc(&mut self, len: u32) -> Result<u32, WatchError> {
        Ok(self.host.alloc_region(len, Prot::ReadWrite)?)
    }

    /// The debuggee's store (goes through watch machinery).
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses.
    pub fn store(&mut self, vaddr: u32, value: u32) -> Result<(), WatchError> {
        Ok(self.host.store_u32(vaddr, value)?)
    }

    /// The debuggee's load.
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses.
    pub fn load(&mut self, vaddr: u32) -> Result<u32, WatchError> {
        Ok(self.host.load_u32(vaddr)?)
    }

    /// Sets a conditional write watch on `[addr, addr+len)`. The condition
    /// receives `(old_value, new_value)` of the touched word; use
    /// `|_, _| true` for an unconditional watch.
    ///
    /// # Errors
    ///
    /// Fails on empty/misaligned ranges or unmapped pages.
    pub fn watch_write(
        &mut self,
        addr: u32,
        len: u32,
        condition: impl Fn(u32, u32) -> bool + 'static,
    ) -> Result<WatchId, WatchError> {
        if len == 0 || !addr.is_multiple_of(4) {
            return Err(WatchError::BadRange { addr, len });
        }
        let id = {
            let mut s = self.shared.borrow_mut();
            s.watches.push(Watch {
                start: addr,
                end: addr + len,
                condition: Box::new(condition),
                enabled: true,
                hits: 0,
            });
            WatchId(s.watches.len() - 1)
        };
        // Protect the covering region.
        if self.use_subpages {
            let first = addr & !(SUBPAGE_SIZE - 1);
            let last = (addr + len - 1) & !(SUBPAGE_SIZE - 1);
            self.host.subpage_protect(
                Protection::region(first, last - first + SUBPAGE_SIZE).read_only(),
            )?;
        } else {
            let first = addr & !(PAGE_SIZE - 1);
            let last = (addr + len - 1) & !(PAGE_SIZE - 1);
            self.host
                .protect(Protection::region(first, last - first + PAGE_SIZE).read_only())?;
        }
        Ok(id)
    }

    /// Disables a watch (its protection remains until all watches on the
    /// page are gone; disabled watches simply stop matching).
    ///
    /// # Errors
    ///
    /// Fails on unknown ids.
    pub fn disable(&mut self, id: WatchId) -> Result<(), WatchError> {
        let mut s = self.shared.borrow_mut();
        let w = s.watches.get_mut(id.0).ok_or(WatchError::NoSuchWatch(id))?;
        w.enabled = false;
        Ok(())
    }

    /// Drains the recorded hits.
    pub fn take_hits(&mut self) -> Vec<WatchHit> {
        std::mem::take(&mut self.shared.borrow_mut().hits)
    }

    /// Hit count for one watch.
    ///
    /// # Errors
    ///
    /// Fails on unknown ids.
    pub fn hit_count(&self, id: WatchId) -> Result<u64, WatchError> {
        let s = self.shared.borrow();
        s.watches
            .get(id.0)
            .map(|w| w.hits)
            .ok_or(WatchError::NoSuchWatch(id))
    }

    /// Statistics.
    pub fn stats(&self) -> WatchStats {
        let s = self.shared.borrow();
        WatchStats {
            hits: s.watches.iter().map(|w| w.hits).sum(),
            false_hits: s.false_hits,
            kernel_absorbed: self.host.stats().subpage_emulated,
            faults: self.host.stats().faults_delivered,
        }
    }

    /// Per-(path, class) exception metrics for the watchpoint faults taken.
    pub fn trace_metrics(&self) -> &efex_trace::Metrics {
        self.host.trace_metrics()
    }

    /// Health-plane snapshot of the host kernel underneath the debugger
    /// (block cache, TLB repairs, degraded deliveries). Pure read.
    pub fn health_snapshot(&self) -> efex_trace::StatsSnapshot {
        self.host.health_snapshot()
    }

    /// Simulated time, µs.
    pub fn micros(&self) -> f64 {
        self.host.micros()
    }

    /// Fault injection: the next `n` watchpoint deliveries fall back to
    /// Unix-signal costs. Hit detection must be unaffected — only dearer.
    pub fn inject_degrade_next_deliveries(&mut self, n: u64) {
        self.host.inject_degrade_next_deliveries(n);
    }

    /// Deliveries that fell back to the degraded (Unix-cost) path.
    pub fn degraded_deliveries(&self) -> u64 {
        self.host.stats().degraded_deliveries
    }
}

/// The canonical deterministic workload recorded in `BENCH_baseline.json` by
/// `efex-bench`'s `report` binary: a conditional write watch with subpage
/// protection, driven by a fixed store loop that exercises all three outcomes
/// (condition hits, false hits on the watched subpage, and stores the
/// kernel's subpage engine absorbs). Every counter must reproduce
/// bit-for-bit across runs.
///
/// # Errors
///
/// Propagates debugger errors.
pub fn baseline_workload() -> Result<(f64, StatsSnapshot), WatchError> {
    let mut dbg = Debugger::new(DeliveryPath::FastUser, true)?;
    let base = dbg.alloc(8192)?;
    dbg.watch_write(base + 64, 8, |_, new| new > 100)?;
    for i in 0..32 {
        dbg.store(base + 64, i * 10)?; // watched word: hit when i*10 > 100
        dbg.store(base + 256, i)?; // same subpage, unwatched: false hit
        dbg.store(base + 2048, i)?; // same page, other subpage: absorbed
    }
    Ok((dbg.micros(), dbg.stats().snapshot()))
}

/// A seeded fleet-tenant variant of [`baseline_workload`]: the same
/// conditional-watch store loop with the iteration count and condition
/// threshold derived deterministically from `seed`. Equal seeds reproduce
/// bit-identical hit and delivery counters.
///
/// The returned [`WorkloadRun`] carries the debugger's health-plane
/// snapshot alongside the deterministic stats; only the latter enter fleet
/// fingerprints.
///
/// # Errors
///
/// Propagates debugger errors.
pub fn tenant_workload(seed: u64) -> Result<WorkloadRun, WatchError> {
    let mut dbg = Debugger::new(DeliveryPath::FastUser, true)?;
    let base = dbg.alloc(8192)?;
    let threshold = 60 + (seed % 80) as u32;
    dbg.watch_write(base + 64, 8, move |_, new| new > threshold)?;
    let iterations = 20 + (seed % 16) as u32;
    for i in 0..iterations {
        dbg.store(base + 64, i * 10)?; // watched word: hit past the threshold
        dbg.store(base + 256, i)?; // same subpage, unwatched: false hit
        dbg.store(base + 2048, i)?; // same page, other subpage: absorbed
    }
    Ok(WorkloadRun::new(
        dbg.micros(),
        dbg.stats().snapshot(),
        dbg.health_snapshot(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dbg(subpages: bool) -> Debugger {
        Debugger::new(DeliveryPath::FastUser, subpages).unwrap()
    }

    #[test]
    fn unconditional_watch_fires_on_every_store() {
        let mut d = dbg(false);
        let mem = d.alloc(4096).unwrap();
        d.store(mem, 0).unwrap(); // pre-watch store: no machinery
        let w = d.watch_write(mem + 16, 4, |_, _| true).unwrap();
        d.store(mem + 16, 1).unwrap();
        d.store(mem + 16, 2).unwrap();
        assert_eq!(d.hit_count(w).unwrap(), 2);
        let hits = d.take_hits();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].old, 0);
        assert_eq!(hits[0].new, 1);
        assert_eq!(hits[1].old, 1);
        assert_eq!(hits[1].new, 2);
        // The stores actually landed.
        assert_eq!(d.load(mem + 16).unwrap(), 2);
    }

    #[test]
    fn degraded_watch_delivery_still_detects_hits() {
        // The first watched store is injected to deliver at Unix-signal
        // costs; hit detection and the store's effect must be identical.
        let mut d = dbg(false);
        let mem = d.alloc(4096).unwrap();
        d.store(mem, 0).unwrap();
        let w = d.watch_write(mem + 16, 4, |_, _| true).unwrap();
        d.inject_degrade_next_deliveries(1);
        d.store(mem + 16, 1).unwrap(); // degraded delivery
        d.store(mem + 16, 2).unwrap(); // fast path again
        assert_eq!(d.hit_count(w).unwrap(), 2);
        assert_eq!(d.degraded_deliveries(), 1);
        assert_eq!(d.load(mem + 16).unwrap(), 2, "stores landed");
    }

    #[test]
    fn condition_filters_hits() {
        let mut d = dbg(false);
        let mem = d.alloc(4096).unwrap();
        d.store(mem, 0).unwrap();
        // Fire only when the value decreases.
        let w = d.watch_write(mem, 4, |old, new| new < old).unwrap();
        d.store(mem, 10).unwrap(); // 0 -> 10: no
        d.store(mem, 5).unwrap(); // 10 -> 5: yes
        d.store(mem, 7).unwrap(); // 5 -> 7: no
        assert_eq!(d.hit_count(w).unwrap(), 1);
        assert_eq!(d.take_hits()[0].new, 5);
    }

    #[test]
    fn protection_persists_across_hits() {
        let mut d = dbg(false);
        let mem = d.alloc(4096).unwrap();
        d.store(mem, 0).unwrap();
        let w = d.watch_write(mem, 4, |_, _| true).unwrap();
        for i in 0..10 {
            d.store(mem, i).unwrap();
        }
        assert_eq!(d.hit_count(w).unwrap(), 10, "every store still faults");
    }

    #[test]
    fn stores_elsewhere_on_the_page_are_false_hits() {
        let mut d = dbg(false);
        let mem = d.alloc(4096).unwrap();
        d.store(mem, 0).unwrap();
        let w = d.watch_write(mem, 4, |_, _| true).unwrap();
        d.store(mem + 100, 9).unwrap(); // same page, not watched
        assert_eq!(d.hit_count(w).unwrap(), 0);
        assert_eq!(d.stats().false_hits, 1);
        assert_eq!(d.load(mem + 100).unwrap(), 9, "emulated store landed");
    }

    #[test]
    fn subpage_narrowing_absorbs_distant_stores_in_the_kernel() {
        let mut d = dbg(true);
        let mem = d.alloc(4096).unwrap();
        d.store(mem, 0).unwrap();
        let w = d.watch_write(mem, 4, |_, _| true).unwrap();
        // Store to a different 1 KB subpage: the kernel emulates it; the
        // debugger never runs.
        d.store(mem + 2048, 3).unwrap();
        assert_eq!(d.stats().kernel_absorbed, 1);
        assert_eq!(d.stats().false_hits, 0);
        assert_eq!(d.hit_count(w).unwrap(), 0);
        // Store on the watched subpage still reaches the debugger.
        d.store(mem + 4, 4).unwrap();
        assert_eq!(d.stats().false_hits, 1, "same subpage, unwatched word");
        d.store(mem, 5).unwrap();
        assert_eq!(d.hit_count(w).unwrap(), 1);
    }

    #[test]
    fn disabled_watch_stops_matching() {
        let mut d = dbg(false);
        let mem = d.alloc(4096).unwrap();
        d.store(mem, 0).unwrap();
        let w = d.watch_write(mem, 4, |_, _| true).unwrap();
        d.store(mem, 1).unwrap();
        d.disable(w).unwrap();
        d.store(mem, 2).unwrap(); // still faults, but no hit recorded
        assert_eq!(d.hit_count(w).unwrap(), 1);
        assert_eq!(d.stats().false_hits, 1);
    }

    #[test]
    fn watch_cost_scales_with_delivery_path() {
        let run = |path| {
            let mut d = Debugger::new(path, false).unwrap();
            let mem = d.alloc(4096).unwrap();
            d.store(mem, 0).unwrap();
            d.watch_write(mem, 4, |_, _| true).unwrap();
            let t0 = d.micros();
            for i in 0..50 {
                d.store(mem, i).unwrap();
            }
            d.micros() - t0
        };
        let slow = run(DeliveryPath::UnixSignals);
        let fast = run(DeliveryPath::FastUser);
        assert!(
            slow / fast > 3.0,
            "watchpoints must get much cheaper: {slow:.0} vs {fast:.0} us"
        );
    }

    #[test]
    fn bad_ranges_are_rejected() {
        let mut d = dbg(false);
        let mem = d.alloc(4096).unwrap();
        assert!(matches!(
            d.watch_write(mem + 2, 4, |_, _| true),
            Err(WatchError::BadRange { .. })
        ));
        assert!(matches!(
            d.watch_write(mem, 0, |_, _| true),
            Err(WatchError::BadRange { .. })
        ));
        assert!(matches!(
            d.hit_count(WatchId(9)),
            Err(WatchError::NoSuchWatch(_))
        ));
    }
}
