//! The lazy-evaluation runtime: unbounded lists and futures via unaligned
//! pointers.
//!
//! Tagged (unevaluated) pointers live in a reserved address range that is
//! never mapped; their low two address bits are `0b10`, so any dereference
//! raises an unaligned-access exception. The fault handler decodes the tag,
//! runs the generator or producer, allocates the result cell, **repairs the
//! pointer in place** (so later uses are free), and redirects the faulting
//! access to the fresh cell.

use std::cell::RefCell;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

use efex_core::{
    CoreError, DeliveryPath, FaultInfo, GuestMem, HandlerAction, HandlerSpec, HostProcess, Prot,
    WorkloadRun,
};
use efex_mips::ExcCode;
use efex_trace::{Snapshot, StatsSnapshot};

/// Base of the reserved (never-mapped) tag address range.
const TAG_BASE: u32 = 0x6000_0000;
/// Size of the tag range: one slot of 8 bytes per suspension.
const TAG_RANGE: u32 = 0x0100_0000;

/// Statistics kept by the runtime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LazyStats {
    /// List cells materialized by the fault handler.
    pub extensions: u64,
    /// Futures resolved by the fault handler.
    pub forces: u64,
    /// Unaligned-access exceptions delivered.
    pub faults: u64,
    /// Cells allocated in total.
    pub cells: u64,
}

impl Snapshot for LazyStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::new("lazydata")
            .counter("extensions", self.extensions)
            .counter("forces", self.forces)
            .counter("faults", self.faults)
            .counter("cells", self.cells)
    }
}

/// Runtime errors.
#[derive(Debug)]
pub enum LazyError {
    /// Underlying simulation error.
    Core(CoreError),
    /// The heap region is exhausted.
    OutOfMemory,
}

impl fmt::Display for LazyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LazyError::Core(e) => write!(f, "simulation error: {e}"),
            LazyError::OutOfMemory => f.write_str("lazy heap exhausted"),
        }
    }
}

impl Error for LazyError {}

impl From<CoreError> for LazyError {
    fn from(e: CoreError) -> LazyError {
        LazyError::Core(e)
    }
}

/// A handle to an unbounded (lazily generated) list.
#[derive(Clone, Copy, Debug)]
pub struct LazyList {
    head: u32,
}

impl LazyList {
    /// The address of the first cell.
    pub fn head(&self) -> u32 {
        self.head
    }
}

/// What a suspension produces when forced.
enum Suspension {
    /// An infinite stream: `gen(index)` yields element `index`; the new
    /// cell's tail is a fresh suspension for `index + 1`.
    Stream {
        gen: Box<dyn FnMut(u64) -> i32>,
        index: u64,
    },
    /// A one-shot future.
    Future(Option<Box<dyn FnOnce() -> i32>>),
    /// Already forced (slot kept so tag ids stay stable).
    Done,
}

struct RtState {
    /// Bump allocator over the mapped cell region.
    alloc_next: u32,
    alloc_limit: u32,
    suspensions: Vec<Suspension>,
    /// The slot that held the tagged pointer being dereferenced (the
    /// handler repairs it — standing in for decoding the faulting
    /// instruction's base register).
    pending_slot: Option<u32>,
    extensions: u64,
    forces: u64,
    cells: u64,
}

impl RtState {
    fn tag_for(&self, id: usize) -> u32 {
        TAG_BASE + (id as u32) * 8 + 2
    }

    fn id_of(vaddr: u32) -> Option<usize> {
        if !(TAG_BASE..TAG_BASE + TAG_RANGE).contains(&vaddr) {
            return None;
        }
        (vaddr % 4 == 2).then_some(((vaddr - TAG_BASE - 2) / 8) as usize)
    }

    fn alloc_cell(&mut self) -> Option<u32> {
        if self.alloc_next + 8 > self.alloc_limit {
            return None;
        }
        let addr = self.alloc_next;
        self.alloc_next += 8;
        self.cells += 1;
        Some(addr)
    }
}

/// The lazy-evaluation runtime.
pub struct LazyRuntime {
    host: HostProcess,
    st: Rc<RefCell<RtState>>,
}

impl fmt::Debug for LazyRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LazyRuntime").finish_non_exhaustive()
    }
}

impl LazyRuntime {
    /// Creates a runtime with a cell heap of `heap_bytes` on the given
    /// delivery path.
    ///
    /// # Errors
    ///
    /// Fails if the simulated system cannot boot.
    pub fn new(path: DeliveryPath, heap_bytes: u32) -> Result<LazyRuntime, LazyError> {
        let mut host = HostProcess::builder().delivery(path).build()?;
        let base = host.alloc_region(heap_bytes, Prot::ReadWrite)?;
        let st = Rc::new(RefCell::new(RtState {
            alloc_next: base,
            alloc_limit: base + heap_bytes,
            suspensions: Vec::new(),
            pending_slot: None,
            extensions: 0,
            forces: 0,
            cells: 0,
        }));

        let state = Rc::clone(&st);
        host.set_handler(
            HandlerSpec::new(move |ctx, info: FaultInfo| {
                if !matches!(info.code, ExcCode::AddrErrLoad | ExcCode::AddrErrStore) {
                    return HandlerAction::Abort;
                }
                // The fault address is tag + in-cell offset (0 or 4).
                let offset = (info.vaddr - 2) % 8;
                let Some(id) = RtState::id_of(info.vaddr - offset) else {
                    return HandlerAction::Abort;
                };
                let mut s = state.borrow_mut();
                if id >= s.suspensions.len() {
                    return HandlerAction::Abort;
                }
                // Force the suspension.
                let Some(cell) = s.alloc_cell() else {
                    return HandlerAction::Abort;
                };
                let susp = std::mem::replace(&mut s.suspensions[id], Suspension::Done);
                let filled = match susp {
                    Suspension::Stream { mut gen, index } => {
                        let datum = gen(index);
                        // The new cell's tail is a fresh suspension continuing
                        // the same stream.
                        s.suspensions.push(Suspension::Stream {
                            gen,
                            index: index + 1,
                        });
                        let tail_tag = s.tag_for(s.suspensions.len() - 1);
                        s.extensions += 1;
                        (datum as u32, tail_tag)
                    }
                    Suspension::Future(Some(p)) => {
                        let v = p();
                        s.forces += 1;
                        (v as u32, 0)
                    }
                    Suspension::Future(None) | Suspension::Done => return HandlerAction::Abort,
                };
                // Charge the force's own work (allocation + fill).
                ctx.charge(20);
                if ctx.write_raw(cell, filled.0).is_err()
                    || ctx.write_raw(cell + 4, filled.1).is_err()
                {
                    return HandlerAction::Abort;
                }
                // Repair the pointer that held the tag, so later uses are free.
                if let Some(slot) = s.pending_slot.take() {
                    if ctx.write_raw(slot, cell).is_err() {
                        return HandlerAction::Abort;
                    }
                }
                HandlerAction::Redirect(cell + offset)
            })
            .named("lazy-fill"),
        );

        Ok(LazyRuntime { host, st })
    }

    /// Statistics so far.
    pub fn stats(&self) -> LazyStats {
        let s = self.st.borrow();
        LazyStats {
            extensions: s.extensions,
            forces: s.forces,
            faults: self.host.stats().faults_delivered,
            cells: s.cells,
        }
    }

    /// Per-(path, class) exception metrics for the unaligned faults taken.
    pub fn trace_metrics(&self) -> &efex_trace::Metrics {
        self.host.trace_metrics()
    }

    /// Health-plane snapshot of the host kernel underneath the runtime
    /// (block cache, TLB repairs, degraded deliveries). Pure read.
    pub fn health_snapshot(&self) -> efex_trace::StatsSnapshot {
        self.host.health_snapshot()
    }

    /// Simulated time, µs.
    pub fn micros(&self) -> f64 {
        self.host.micros()
    }

    /// Fault injection: the next `n` lazy-extension deliveries fall back to
    /// Unix-signal costs. Forced values must be unchanged — only dearer.
    pub fn inject_degrade_next_deliveries(&mut self, n: u64) {
        self.host.inject_degrade_next_deliveries(n);
    }

    /// Deliveries that fell back to the degraded (Unix-cost) path.
    pub fn degraded_deliveries(&self) -> u64 {
        self.host.stats().degraded_deliveries
    }

    /// Creates an unbounded list whose `index`th element is `gen(index)`.
    /// No element is computed until touched.
    ///
    /// # Errors
    ///
    /// Fails if the heap is exhausted.
    pub fn new_stream(
        &mut self,
        gen: impl FnMut(u64) -> i32 + 'static,
    ) -> Result<LazyList, LazyError> {
        let mut s = self.st.borrow_mut();
        // The head itself is a suspension: materialize a one-cell shell
        // whose tail tag forces element 0 on first touch... simpler: the
        // list handle stores the tag as a virtual head pointer slot.
        let cell = s.alloc_cell().ok_or(LazyError::OutOfMemory)?;
        s.suspensions.push(Suspension::Stream {
            gen: Box::new(gen),
            index: 0,
        });
        let tag = s.tag_for(s.suspensions.len() - 1);
        drop(s);
        // The shell cell: [unused datum, tagged tail]; traversal starts at
        // its tail.
        self.host.write_raw(cell, 0)?;
        self.host.write_raw(cell + 4, tag)?;
        Ok(LazyList { head: cell })
    }

    /// Reads the first `n` elements of a list, forcing as needed.
    ///
    /// # Errors
    ///
    /// Fails on simulation errors.
    pub fn take(&mut self, list: LazyList, n: usize) -> Result<Vec<i32>, LazyError> {
        let mut out = Vec::with_capacity(n);
        let mut cell = list.head;
        for _ in 0..n {
            // Follow the tail; the dereference through a tagged tail faults
            // and extends the list.
            let tail_slot = cell + 4;
            let tail = self.host.load_u32(tail_slot)?;
            self.st.borrow_mut().pending_slot = Some(tail_slot);
            let datum = self.host.load_u32(tail)? as i32;
            self.st.borrow_mut().pending_slot = None;
            // The slot now holds the real (repaired) cell address.
            cell = self.host.load_u32(tail_slot)?;
            out.push(datum);
        }
        Ok(out)
    }

    /// Creates a future; the producer runs at first touch.
    /// Returns the address of the slot holding the (initially unaligned)
    /// future pointer.
    ///
    /// # Errors
    ///
    /// Fails if the heap is exhausted.
    pub fn make_future(
        &mut self,
        producer: impl FnOnce() -> i32 + 'static,
    ) -> Result<u32, LazyError> {
        let mut s = self.st.borrow_mut();
        let slot = s.alloc_cell().ok_or(LazyError::OutOfMemory)?;
        s.suspensions
            .push(Suspension::Future(Some(Box::new(producer))));
        let tag = s.tag_for(s.suspensions.len() - 1);
        drop(s);
        self.host.write_raw(slot, tag)?;
        Ok(slot)
    }

    /// Touches a future: returns its value, forcing the producer on first
    /// touch (one unaligned fault), free afterwards.
    ///
    /// # Errors
    ///
    /// Fails on simulation errors.
    pub fn touch(&mut self, future_slot: u32) -> Result<i32, LazyError> {
        let ptr = self.host.load_u32(future_slot)?;
        self.st.borrow_mut().pending_slot = Some(future_slot);
        let v = self.host.load_u32(ptr)? as i32;
        self.st.borrow_mut().pending_slot = None;
        Ok(v)
    }

    /// Access to the underlying host process (for the full/empty layer).
    pub(crate) fn host_mut(&mut self) -> &mut HostProcess {
        &mut self.host
    }

    /// Allocates a raw 8-byte cell (for the full/empty layer).
    pub(crate) fn alloc_raw(&mut self) -> Result<u32, LazyError> {
        self.st
            .borrow_mut()
            .alloc_cell()
            .ok_or(LazyError::OutOfMemory)
    }
}

/// The canonical deterministic workload recorded in `BENCH_baseline.json` by
/// `efex-bench`'s `report` binary: stream extension plus future touches over
/// the fast path. The generator is a fixed pure function, so extension and
/// force counts must reproduce bit-for-bit across runs.
///
/// # Errors
///
/// Propagates runtime errors.
pub fn baseline_workload() -> Result<(f64, StatsSnapshot), LazyError> {
    let mut rt = LazyRuntime::new(DeliveryPath::FastUser, 256 * 1024)?;
    let list = rt.new_stream(|i| (i as i32) * 3)?;
    let elems = rt.take(list, 24)?;
    debug_assert_eq!(elems.len(), 24);
    let fut = rt.make_future(|| 41)?;
    let first = rt.touch(fut)?; // forces the producer (one fault)
    let again = rt.touch(fut)?; // free afterwards
    debug_assert_eq!((first, again), (41, 41));
    Ok((rt.micros(), rt.stats().snapshot()))
}

/// A seeded fleet-tenant variant of [`baseline_workload`]: the same
/// stream-plus-future shape with the element count, generator multiplier,
/// and future value derived deterministically from `seed`. Equal seeds
/// reproduce bit-identical extension and force counts.
///
/// The returned [`WorkloadRun`] carries the runtime's health-plane
/// snapshot alongside the deterministic stats; only the latter enter fleet
/// fingerprints.
///
/// # Errors
///
/// Propagates runtime errors.
pub fn tenant_workload(seed: u64) -> Result<WorkloadRun, LazyError> {
    let mut rt = LazyRuntime::new(DeliveryPath::FastUser, 256 * 1024)?;
    let mult = 1 + (seed % 9) as i32;
    let list = rt.new_stream(move |i| (i as i32) * mult)?;
    let n = 10 + (seed % 16) as usize;
    let elems = rt.take(list, n)?;
    debug_assert_eq!(elems.len(), n);
    let value = 40 + (seed % 13) as i32;
    let fut = rt.make_future(move || value)?;
    let first = rt.touch(fut)?; // forces the producer (one fault)
    let again = rt.touch(fut)?; // free afterwards
    debug_assert_eq!((first, again), (value, value));
    Ok(WorkloadRun::new(
        rt.micros(),
        rt.stats().snapshot(),
        rt.health_snapshot(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt() -> LazyRuntime {
        LazyRuntime::new(DeliveryPath::FastUser, 64 * 1024).unwrap()
    }

    #[test]
    fn stream_materializes_on_demand() {
        let mut rt = rt();
        let squares = rt.new_stream(|i| (i * i) as i32).unwrap();
        assert_eq!(rt.stats().extensions, 0, "nothing computed yet");
        let v = rt.take(squares, 5).unwrap();
        assert_eq!(v, vec![0, 1, 4, 9, 16]);
        assert_eq!(rt.stats().extensions, 5);
        assert_eq!(rt.stats().faults, 5, "one fault per new element");
    }

    #[test]
    fn degraded_extension_delivery_preserves_values() {
        // The first two extension faults are injected to fall back to
        // Unix-signal costs; the forced values must be unchanged.
        let mut rt = rt();
        let squares = rt.new_stream(|i| (i * i) as i32).unwrap();
        rt.inject_degrade_next_deliveries(2);
        let v = rt.take(squares, 5).unwrap();
        assert_eq!(v, vec![0, 1, 4, 9, 16]);
        assert_eq!(rt.degraded_deliveries(), 2);
        assert_eq!(rt.stats().extensions, 5);
    }

    #[test]
    fn revisiting_evaluated_prefix_is_free() {
        let mut rt = rt();
        let nats = rt.new_stream(|i| i as i32).unwrap();
        rt.take(nats, 8).unwrap();
        let f = rt.stats().faults;
        // Walking the same prefix again: pointers were repaired in place.
        let v = rt.take(nats, 8).unwrap();
        assert_eq!(v, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(rt.stats().faults, f, "no new faults on the warm prefix");
    }

    #[test]
    fn take_beyond_prefix_extends_incrementally() {
        let mut rt = rt();
        let nats = rt.new_stream(|i| i as i32).unwrap();
        rt.take(nats, 3).unwrap();
        rt.take(nats, 6).unwrap();
        assert_eq!(rt.stats().extensions, 6, "only 3 more computed");
    }

    #[test]
    fn two_streams_are_independent() {
        let mut rt = rt();
        let a = rt.new_stream(|i| i as i32).unwrap();
        let b = rt.new_stream(|i| -(i as i32)).unwrap();
        assert_eq!(rt.take(a, 3).unwrap(), vec![0, 1, 2]);
        assert_eq!(rt.take(b, 3).unwrap(), vec![0, -1, -2]);
        assert_eq!(rt.take(a, 4).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn future_forces_once() {
        use std::cell::Cell;
        use std::rc::Rc;
        let mut rt = rt();
        let runs = Rc::new(Cell::new(0));
        let r2 = runs.clone();
        let f = rt
            .make_future(move || {
                r2.set(r2.get() + 1);
                77
            })
            .unwrap();
        assert_eq!(runs.get(), 0, "lazy until touched");
        assert_eq!(rt.touch(f).unwrap(), 77);
        assert_eq!(runs.get(), 1);
        assert_eq!(rt.touch(f).unwrap(), 77, "resolved value reused");
        assert_eq!(runs.get(), 1, "producer ran exactly once");
        assert_eq!(rt.stats().forces, 1);
        assert_eq!(rt.stats().faults, 1);
    }

    #[test]
    fn stream_generator_state_is_captured() {
        let mut rt = rt();
        let mut acc = 0i32;
        let sums = rt
            .new_stream(move |i| {
                acc += i as i32;
                acc
            })
            .unwrap();
        assert_eq!(rt.take(sums, 5).unwrap(), vec![0, 1, 3, 6, 10]);
    }
}

#[cfg(test)]
mod exhaustion_tests {
    use super::*;

    #[test]
    fn heap_exhaustion_surfaces_as_error() {
        // A heap with room for only a few cells: the stream extension
        // inside the fault handler fails, the handler aborts the access,
        // and the error reaches the caller instead of hanging.
        let mut rt = LazyRuntime::new(DeliveryPath::FastUser, 4096).unwrap();
        let s = rt.new_stream(|i| i as i32).unwrap();
        let result = rt.take(s, 4096 / 8 + 2);
        assert!(result.is_err(), "must run out of cells");
    }

    #[test]
    fn make_future_fails_cleanly_when_full() {
        let mut rt = LazyRuntime::new(DeliveryPath::FastUser, 4096).unwrap();
        let mut made = 0;
        loop {
            match rt.make_future(|| 0) {
                Ok(_) => made += 1,
                Err(LazyError::OutOfMemory) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
            assert!(made < 10_000, "allocator must be bounded");
        }
        assert_eq!(made, 4096 / 8);
    }
}
