//! The persistent-store runtime: residency detection and swizzling.

use std::cell::RefCell;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

use efex_core::{
    CoreError, DeliveryPath, FaultCtx, GuestMem, HandlerAction, HandlerSpec, HostProcess, Prot,
    Protection,
};
use efex_mips::ExcCode;
use efex_simos::layout::PAGE_SIZE;
use efex_trace::{Snapshot, StatsSnapshot};

use crate::graph::{Oid, Slot, StableGraph};

/// How non-residency is detected at a pointer use (the Figure 3 axis).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// A software check before every dereference (White & DeWitt style),
    /// charged at [`PstoreConfig::check_cycles`] per use.
    SoftwareCheck,
    /// Reserved pages are access-protected; dereferencing a pointer to a
    /// non-resident page takes a protection fault.
    ProtFault,
    /// Unswizzled pointers are unaligned; the first dereference takes an
    /// unaligned-access exception handled by the paper's specialized
    /// handler (Section 4.2.2).
    Unaligned,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Strategy::SoftwareCheck => "software-check",
            Strategy::ProtFault => "protection-fault",
            Strategy::Unaligned => "unaligned-pointer",
        })
    }
}

/// When pointers are swizzled (the Figure 4 axis).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Policy {
    /// All pointers on a page are swizzled when the page is loaded.
    Eager,
    /// Each pointer is swizzled at its first use.
    Lazy,
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Policy::Eager => "eager",
            Policy::Lazy => "lazy",
        })
    }
}

/// Store configuration.
#[derive(Clone, Copy, Debug)]
pub struct PstoreConfig {
    /// Exception delivery path (for the exception-based strategies).
    pub path: DeliveryPath,
    /// Residency detection strategy.
    pub strategy: Strategy,
    /// Swizzling policy.
    pub policy: Policy,
    /// Cycles per software residency check (`c` in Figure 3).
    pub check_cycles: u64,
    /// Cycles to swizzle one pointer (`s` in Figure 4).
    pub swizzle_cycles: u64,
    /// Cycles to read one page from stable storage.
    pub page_load_cycles: u64,
}

impl Default for PstoreConfig {
    fn default() -> PstoreConfig {
        PstoreConfig {
            path: DeliveryPath::FastUser,
            strategy: Strategy::Unaligned,
            policy: Policy::Lazy,
            check_cycles: 5,
            swizzle_cycles: 25,
            page_load_cycles: 5_000,
        }
    }
}

/// Store statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PstoreStats {
    /// Pointer uses performed.
    pub uses: u64,
    /// Software residency checks executed.
    pub checks: u64,
    /// Pointers swizzled.
    pub swizzles: u64,
    /// Pages loaded from stable storage.
    pub pages_loaded: u64,
    /// Exceptions delivered (from the host process).
    pub faults: u64,
}

impl Snapshot for PstoreStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::new("pstore")
            .counter("uses", self.uses)
            .counter("checks", self.checks)
            .counter("swizzles", self.swizzles)
            .counter("pages_loaded", self.pages_loaded)
            .counter("faults", self.faults)
    }
}

/// Store errors.
#[derive(Debug)]
pub enum PstoreError {
    /// Underlying simulation error.
    Core(CoreError),
    /// Invalid configuration (e.g. lazy + protection faults).
    Invalid(String),
    /// A slot did not hold a pointer.
    NotAPointer {
        /// The slot's guest address.
        vaddr: u32,
        /// The word found there.
        word: u32,
    },
}

impl fmt::Display for PstoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PstoreError::Core(e) => write!(f, "simulation error: {e}"),
            PstoreError::Invalid(s) => write!(f, "invalid configuration: {s}"),
            PstoreError::NotAPointer { vaddr, word } => {
                write!(f, "slot {vaddr:#x} holds {word:#x}, not a pointer")
            }
        }
    }
}

impl Error for PstoreError {}

impl From<CoreError> for PstoreError {
    fn from(e: CoreError) -> PstoreError {
        PstoreError::Core(e)
    }
}

/// Shared state the fault handler and the store both touch.
struct Shared {
    graph: StableGraph,
    base: u32,
    resident: Vec<bool>,
    policy: Policy,
    strategy: Strategy,
    swizzle_cycles: u64,
    page_load_cycles: u64,
    swizzles: u64,
    pages_loaded: u64,
    /// The slot address of the pointer being dereferenced — the handler's
    /// stand-in for decoding the faulting instruction to find the pointer
    /// it must repair (which the paper's specialized handler does).
    pending_slot: Option<u32>,
}

impl Shared {
    fn vbase(&self, oid: Oid) -> u32 {
        self.base + oid.0 * PAGE_SIZE
    }

    fn oid_of(&self, vaddr: u32) -> Option<Oid> {
        let off = vaddr.checked_sub(self.base)?;
        let oid = off / PAGE_SIZE;
        (oid < self.graph.page_count()).then_some(Oid(oid))
    }

    /// The unswizzled (tagged, unaligned) in-memory form of a pointer.
    fn tagged(&self, oid: Oid) -> u32 {
        self.vbase(oid) + 2
    }

    fn is_tagged(word: u32) -> bool {
        word % 4 == 2
    }

    /// Materializes a page into memory via `ops`, swizzling per policy.
    fn load_page(&mut self, ops: &mut dyn StoreOps, oid: Oid) -> Result<(), CoreError> {
        if self.resident[oid.0 as usize] {
            return Ok(());
        }
        ops.charge(self.page_load_cycles);
        let base = self.vbase(oid);
        if self.strategy == Strategy::ProtFault {
            ops.set_prot(base, PAGE_SIZE, Prot::ReadWrite)?;
        }
        let slots: Vec<Slot> = self.graph.page(oid).to_vec();
        for (i, slot) in slots.iter().enumerate() {
            let word = match slot {
                Slot::Data(d) => *d & !3, // data words stay aligned-looking
                Slot::Ptr(t) => match self.policy {
                    Policy::Eager => {
                        ops.charge(self.swizzle_cycles);
                        self.swizzles += 1;
                        self.vbase(*t)
                    }
                    Policy::Lazy => self.tagged(*t),
                },
            };
            ops.write_word(base + 4 * i as u32, word)?;
        }
        self.resident[oid.0 as usize] = true;
        self.pages_loaded += 1;
        Ok(())
    }

    /// Lazy-swizzles the pointer in `slot_addr` (known to hold a tagged
    /// word for `target`), returning the swizzled value.
    fn swizzle_slot(
        &mut self,
        ops: &mut dyn StoreOps,
        slot_addr: u32,
        target: Oid,
    ) -> Result<u32, CoreError> {
        ops.charge(self.swizzle_cycles);
        let v = self.vbase(target);
        ops.write_word(slot_addr, v)?;
        self.swizzles += 1;
        Ok(v)
    }
}

/// The operations page loading needs, implemented by both the normal path
/// (the store itself) and the fault handler's context.
trait StoreOps {
    fn write_word(&mut self, addr: u32, v: u32) -> Result<(), CoreError>;
    fn set_prot(&mut self, addr: u32, len: u32, prot: Prot) -> Result<(), CoreError>;
    fn charge(&mut self, cycles: u64);
}

impl StoreOps for FaultCtx<'_> {
    fn write_word(&mut self, addr: u32, v: u32) -> Result<(), CoreError> {
        self.write_raw(addr, v)
    }
    fn set_prot(&mut self, addr: u32, len: u32, prot: Prot) -> Result<(), CoreError> {
        self.protect(Protection::region(addr, len).with_prot(prot))
    }
    fn charge(&mut self, cycles: u64) {
        FaultCtx::charge(self, cycles);
    }
}

impl StoreOps for HostProcess {
    fn write_word(&mut self, addr: u32, v: u32) -> Result<(), CoreError> {
        self.write_raw(addr, v)
    }
    fn set_prot(&mut self, addr: u32, len: u32, prot: Prot) -> Result<(), CoreError> {
        self.protect(Protection::region(addr, len).with_prot(prot))
    }
    fn charge(&mut self, cycles: u64) {
        HostProcess::charge(self, cycles);
    }
}

/// The persistent store runtime.
pub struct Pstore {
    host: HostProcess,
    shared: Rc<RefCell<Shared>>,
    cfg: PstoreConfig,
    uses: u64,
    checks: u64,
}

impl fmt::Debug for Pstore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pstore")
            .field("strategy", &self.cfg.strategy)
            .field("policy", &self.cfg.policy)
            .finish_non_exhaustive()
    }
}

impl Pstore {
    /// Opens a store over a stable graph.
    ///
    /// # Errors
    ///
    /// Fails on invalid strategy/policy combinations (eager swizzling
    /// requires protection faults or checks; lazy exception-based swizzling
    /// requires unaligned pointers) or simulation errors.
    pub fn open(graph: StableGraph, cfg: PstoreConfig) -> Result<Pstore, PstoreError> {
        match (cfg.policy, cfg.strategy) {
            (Policy::Eager, Strategy::Unaligned) => {
                return Err(PstoreError::Invalid(
                    "eager swizzling leaves no unaligned pointers to fault on".into(),
                ))
            }
            (Policy::Lazy, Strategy::ProtFault) => {
                return Err(PstoreError::Invalid(
                    "lazy swizzling detects residency per pointer, not per page; \
                     use unaligned pointers or software checks"
                        .into(),
                ))
            }
            _ => {}
        }
        let mut host = HostProcess::builder().delivery(cfg.path).build()?;
        let len = graph.page_count() * PAGE_SIZE;
        let prot = if cfg.strategy == Strategy::ProtFault {
            Prot::None
        } else {
            Prot::ReadWrite
        };
        let base = host.alloc_region(len, prot)?;
        let page_count = graph.page_count() as usize;
        let shared = Rc::new(RefCell::new(Shared {
            graph,
            base,
            resident: vec![false; page_count],
            policy: cfg.policy,
            strategy: cfg.strategy,
            swizzle_cycles: cfg.swizzle_cycles,
            page_load_cycles: cfg.page_load_cycles,
            swizzles: 0,
            pages_loaded: 0,
            pending_slot: None,
        }));

        if cfg.strategy != Strategy::SoftwareCheck {
            let st = Rc::clone(&shared);
            host.set_handler(
                HandlerSpec::new(move |ctx, info| {
                    let mut s = st.borrow_mut();
                    match info.code {
                        // Unaligned dereference of a tagged pointer: load the
                        // target page and repair the pointer (lazy swizzling).
                        ExcCode::AddrErrLoad | ExcCode::AddrErrStore
                            if Shared::is_tagged(info.vaddr) =>
                        {
                            let Some(target) = s.oid_of(info.vaddr - 2) else {
                                return HandlerAction::Abort;
                            };
                            if s.load_page(ctx, target).is_err() {
                                return HandlerAction::Abort;
                            }
                            let aligned = s.vbase(target) + (info.vaddr - 2) % PAGE_SIZE;
                            if let Some(slot) = s.pending_slot.take() {
                                if s.swizzle_slot(ctx, slot, target).is_err() {
                                    return HandlerAction::Abort;
                                }
                            }
                            HandlerAction::Redirect(aligned)
                        }
                        // Protection fault on a reserved page: load it.
                        ExcCode::TlbMod | ExcCode::TlbLoad | ExcCode::TlbStore => {
                            let Some(target) = s.oid_of(info.vaddr) else {
                                return HandlerAction::Abort;
                            };
                            if s.load_page(ctx, target).is_err() {
                                return HandlerAction::Abort;
                            }
                            HandlerAction::Retry
                        }
                        _ => HandlerAction::Abort,
                    }
                })
                .named("pstore-swizzle"),
            );
        }

        Ok(Pstore {
            host,
            shared,
            cfg,
            uses: 0,
            checks: 0,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &PstoreConfig {
        &self.cfg
    }

    /// Simulated time, µs.
    pub fn micros(&self) -> f64 {
        self.host.micros()
    }

    /// Simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.host.cycles()
    }

    /// Statistics so far.
    pub fn stats(&self) -> PstoreStats {
        let s = self.shared.borrow();
        PstoreStats {
            uses: self.uses,
            checks: self.checks,
            swizzles: s.swizzles,
            pages_loaded: s.pages_loaded,
            faults: self.host.stats().faults_delivered,
        }
    }

    /// Per-(path, class) exception metrics for the residency faults taken.
    pub fn trace_metrics(&self) -> &efex_trace::Metrics {
        self.host.trace_metrics()
    }

    /// Health-plane snapshot of the host kernel underneath the store
    /// (block cache, TLB repairs, degraded deliveries). Pure read.
    pub fn health_snapshot(&self) -> efex_trace::StatsSnapshot {
        self.host.health_snapshot()
    }

    /// Fault injection: the next `n` swizzle-fault deliveries fall back to
    /// Unix-signal costs. Pointer swizzling must still produce the same
    /// object graph — only dearer.
    pub fn inject_degrade_next_deliveries(&mut self, n: u64) {
        self.host.inject_degrade_next_deliveries(n);
    }

    /// Deliveries that fell back to the degraded (Unix-cost) path.
    pub fn degraded_deliveries(&self) -> u64 {
        self.host.stats().degraded_deliveries
    }

    /// Returns the (loaded) root page's virtual address.
    ///
    /// # Errors
    ///
    /// Fails on simulation errors.
    pub fn root(&mut self) -> Result<u32, PstoreError> {
        let oid = Oid(0);
        let resident = self.shared.borrow().resident[0];
        if !resident {
            let shared = Rc::clone(&self.shared);
            shared.borrow_mut().load_page(&mut self.host, oid)?;
        }
        Ok(self.shared.borrow().vbase(oid))
    }

    /// Uses the pointer in slot `idx` of the object at `obj_vaddr`:
    /// performs the residency protocol and one access through the pointer.
    /// Returns the target's (swizzled) virtual address.
    ///
    /// This is the operation whose cost Figure 3 compares across
    /// strategies: a software check costs `c` cycles on *every* use, while
    /// exception-based detection costs one exception on the *first* use of
    /// each pointer and nothing after.
    ///
    /// # Errors
    ///
    /// Fails if the slot does not hold a pointer.
    pub fn use_pointer(&mut self, obj_vaddr: u32, idx: u32) -> Result<u32, PstoreError> {
        self.uses += 1;
        let slot_addr = obj_vaddr + 4 * idx;
        match self.cfg.strategy {
            Strategy::SoftwareCheck => {
                // The check executes on every dereference.
                self.host.charge(self.cfg.check_cycles);
                self.checks += 1;
                let word = self.host.load_u32(slot_addr)?;
                let target_vaddr = if Shared::is_tagged(word) {
                    let shared = Rc::clone(&self.shared);
                    let mut s = shared.borrow_mut();
                    let target = s.oid_of(word - 2).ok_or(PstoreError::NotAPointer {
                        vaddr: slot_addr,
                        word,
                    })?;
                    s.load_page(&mut self.host, target)?;
                    s.swizzle_slot(&mut self.host, slot_addr, target)?
                } else {
                    let s = self.shared.borrow();
                    if s.oid_of(word).is_none() {
                        return Err(PstoreError::NotAPointer {
                            vaddr: slot_addr,
                            word,
                        });
                    }
                    // Eager + checks: verify target residency explicitly.
                    drop(s);
                    let target = self.shared.borrow().oid_of(word).expect("just checked");
                    let resident = self.shared.borrow().resident[target.0 as usize];
                    if !resident {
                        let shared = Rc::clone(&self.shared);
                        shared.borrow_mut().load_page(&mut self.host, target)?;
                    }
                    word
                };
                // The use itself: one access through the pointer.
                self.host.load_u32(target_vaddr)?;
                Ok(target_vaddr)
            }
            Strategy::Unaligned | Strategy::ProtFault => {
                let word = self.host.load_u32(slot_addr)?;
                let tagged = Shared::is_tagged(word);
                {
                    let mut s = self.shared.borrow_mut();
                    if s.oid_of(word & !3).is_none() {
                        return Err(PstoreError::NotAPointer {
                            vaddr: slot_addr,
                            word,
                        });
                    }
                    // Tell the handler which slot to repair (stands in for
                    // decoding the faulting instruction).
                    s.pending_slot = Some(slot_addr);
                }
                // The access through the (possibly tagged) pointer: this is
                // where the exception fires on first use.
                self.host.load_u32(word)?;
                self.shared.borrow_mut().pending_slot = None;
                if tagged {
                    // The handler repaired the slot: re-read the swizzled
                    // value. The warm path skips this load entirely.
                    Ok(self.host.load_u32(slot_addr)?)
                } else {
                    Ok(word)
                }
            }
        }
    }

    /// Reads a data word from a loaded object.
    ///
    /// # Errors
    ///
    /// Fails on simulation errors.
    pub fn read_data(&mut self, obj_vaddr: u32, idx: u32) -> Result<u32, PstoreError> {
        Ok(self.host.load_u32(obj_vaddr + 4 * idx)?)
    }

    /// Writes a data word into a loaded object (stores never fault under
    /// the residency strategies — the page is resident by construction
    /// once its address is usable).
    ///
    /// # Errors
    ///
    /// Fails on simulation errors.
    pub fn write_data(&mut self, obj_vaddr: u32, idx: u32, value: u32) -> Result<(), PstoreError> {
        Ok(self.host.store_u32(obj_vaddr + 4 * idx, value)?)
    }

    /// Checkpoints the store: every resident page is **unswizzled** —
    /// in-memory pointers are converted back to on-disk object identifiers
    /// (Section 4.2.2: "it is 'unswizzled' to change it from in-memory
    /// format to on-disk format") — and written back to stable storage.
    /// Returns the closed stable graph, which can be re-opened.
    ///
    /// # Errors
    ///
    /// Fails if a resident page contains an unrecognizable word where a
    /// pointer is expected.
    pub fn checkpoint(mut self) -> Result<StableGraph, PstoreError> {
        let resident: Vec<Oid> = {
            let s = self.shared.borrow();
            (0..s.graph.page_count())
                .map(Oid)
                .filter(|o| s.resident[o.0 as usize])
                .collect()
        };
        let slots_per_page = self.shared.borrow().graph.slots_per_page();
        let mut page = vec![0; 4 * slots_per_page as usize];
        for oid in resident {
            let base = self.shared.borrow().vbase(oid);
            // Unswizzle with kernel rights: checkpointing is the store's own
            // code, not application pointer use.
            self.host.read_raw_into(base, &mut page)?;
            let mut slots = Vec::with_capacity(slots_per_page as usize);
            for word in page.chunks_exact(4) {
                let word = u32::from_le_bytes(word.try_into().expect("4 bytes"));
                // A pointer in either form — swizzled (vaddr) or still
                // tagged (vaddr+2) — unswizzles to its target's OID.
                let slot = {
                    let s = self.shared.borrow();
                    match s.oid_of(word & !3) {
                        Some(target) => Slot::Ptr(target),
                        None => Slot::Data(word),
                    }
                };
                if matches!(slot, Slot::Ptr(_)) {
                    // Charge the unswizzle work per pointer.
                    let cy = self.cfg.swizzle_cycles;
                    self.host.charge(cy);
                }
                slots.push(slot);
            }
            // Write-back costs one stable-storage page write.
            self.host.charge(self.cfg.page_load_cycles);
            self.shared.borrow_mut().graph.replace_page(oid, slots);
        }
        // The fault handler holds the only other reference to the shared
        // state; drop it so the graph can be taken out.
        self.host.clear_handler();
        let shared = Rc::try_unwrap(self.shared)
            .map_err(|_| PstoreError::Invalid("store still shared".into()))
            .map(RefCell::into_inner);
        match shared {
            Ok(s) => Ok(s.graph),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> StableGraph {
        StableGraph::random(8, 16, 8, 99)
    }

    fn open(strategy: Strategy, policy: Policy) -> Pstore {
        Pstore::open(
            graph(),
            PstoreConfig {
                strategy,
                policy,
                ..PstoreConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn invalid_combinations_are_rejected() {
        assert!(matches!(
            Pstore::open(
                graph(),
                PstoreConfig {
                    strategy: Strategy::Unaligned,
                    policy: Policy::Eager,
                    ..PstoreConfig::default()
                }
            ),
            Err(PstoreError::Invalid(_))
        ));
        assert!(matches!(
            Pstore::open(
                graph(),
                PstoreConfig {
                    strategy: Strategy::ProtFault,
                    policy: Policy::Lazy,
                    ..PstoreConfig::default()
                }
            ),
            Err(PstoreError::Invalid(_))
        ));
    }

    #[test]
    fn degraded_swizzle_delivery_preserves_the_graph() {
        // Two identical stores walk the same pointer; one takes its
        // swizzle fault through an injected degraded delivery. Same
        // traversal result, strictly dearer.
        let mut a = open(Strategy::Unaligned, Policy::Lazy);
        let mut b = open(Strategy::Unaligned, Policy::Lazy);
        let root_a = a.root().unwrap();
        let root_b = b.root().unwrap();
        b.inject_degrade_next_deliveries(1);
        let t_a = a.use_pointer(root_a, 0).unwrap();
        let t_b = b.use_pointer(root_b, 0).unwrap();
        assert_eq!(t_a, t_b, "same graph, same swizzle target");
        assert_eq!(b.degraded_deliveries(), 1);
        assert_eq!(a.degraded_deliveries(), 0);
        assert!(b.cycles() > a.cycles(), "degraded delivery is dearer");
    }

    #[test]
    fn lazy_unaligned_first_use_faults_then_is_free() {
        let mut ps = open(Strategy::Unaligned, Policy::Lazy);
        let root = ps.root().unwrap();
        let t1 = ps.use_pointer(root, 0).unwrap();
        assert_eq!(ps.stats().faults, 1, "first use faults");
        assert_eq!(ps.stats().swizzles, 1, "and swizzles the slot");
        let t2 = ps.use_pointer(root, 0).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(ps.stats().faults, 1, "second use is free");
        assert_eq!(ps.stats().checks, 0, "no software checks");
    }

    #[test]
    fn eager_protfault_loads_and_swizzles_whole_pages() {
        let mut ps = open(Strategy::ProtFault, Policy::Eager);
        let root = ps.root().unwrap();
        let before = ps.stats().swizzles;
        assert_eq!(before, 8, "root page's 8 pointers swizzled at load");
        let target = ps.use_pointer(root, 0).unwrap();
        let st = ps.stats();
        assert_eq!(st.pages_loaded, 2, "root + target");
        assert_eq!(st.swizzles, 16, "target page eagerly swizzled too");
        assert!(st.faults >= 1, "the deref faulted the target in");
        // Re-use: no fault.
        let f = ps.stats().faults;
        ps.use_pointer(root, 0).unwrap();
        assert_eq!(ps.stats().faults, f);
        let _ = target;
    }

    #[test]
    fn software_checks_charge_every_use() {
        let mut ps = open(Strategy::SoftwareCheck, Policy::Lazy);
        let root = ps.root().unwrap();
        for _ in 0..5 {
            ps.use_pointer(root, 0).unwrap();
        }
        let st = ps.stats();
        assert_eq!(st.checks, 5, "a check per use");
        assert_eq!(st.faults, 0, "never faults");
        assert_eq!(st.swizzles, 1, "swizzled once at first use");
    }

    #[test]
    fn data_slots_are_not_pointers() {
        let mut ps = open(Strategy::Unaligned, Policy::Lazy);
        let root = ps.root().unwrap();
        // Slots 8.. are data in this graph (8 pointers per 16-slot page).
        assert!(matches!(
            ps.use_pointer(root, 12),
            Err(PstoreError::NotAPointer { .. })
        ));
    }

    #[test]
    fn deterministic_cycles_for_same_configuration() {
        let run = || {
            let mut ps = open(Strategy::Unaligned, Policy::Lazy);
            let root = ps.root().unwrap();
            for i in 0..8 {
                ps.use_pointer(root, i).unwrap();
            }
            ps.cycles()
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use crate::graph::Slot;

    fn open_lazy(graph: StableGraph) -> Pstore {
        Pstore::open(
            graph,
            PstoreConfig {
                strategy: Strategy::Unaligned,
                policy: Policy::Lazy,
                ..PstoreConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn checkpoint_unswizzles_back_to_oids() {
        let graph = StableGraph::random(6, 8, 4, 21);
        let original: Vec<Vec<Slot>> = (0..6).map(|i| graph.page(Oid(i)).to_vec()).collect();
        let mut ps = open_lazy(graph);
        let root = ps.root().unwrap();
        // Touch some pointers so a mix of swizzled and tagged slots exists.
        ps.use_pointer(root, 0).unwrap();
        ps.use_pointer(root, 2).unwrap();
        let graph2 = ps.checkpoint().unwrap();
        // Pointer structure survives the swizzle/unswizzle round trip.
        for i in 0..6 {
            let before = &original[i as usize];
            let after = graph2.page(Oid(i));
            for (b, a) in before.iter().zip(after) {
                match (b, a) {
                    (Slot::Ptr(x), Slot::Ptr(y)) => assert_eq!(x, y, "page {i}"),
                    // Unloaded pages keep their stable form; loaded data
                    // slots had their low bits masked at load.
                    (Slot::Data(x), Slot::Data(y)) => assert_eq!(*x & !3, *y & !3),
                    (b, a) => panic!("slot kind changed on page {i}: {b:?} -> {a:?}"),
                }
            }
        }
    }

    #[test]
    fn data_mutations_persist_across_checkpoint_and_reopen() {
        let graph = StableGraph::random(4, 8, 2, 22);
        let mut ps = open_lazy(graph);
        let root = ps.root().unwrap();
        // Slots 2.. are data on these pages (2 pointers per page).
        ps.write_data(root, 5, 0xbeec).unwrap();
        let graph2 = ps.checkpoint().unwrap();
        assert_eq!(graph2.page(Oid(0))[5], Slot::Data(0xbeec));
        // Re-open and read it back through the full machinery.
        let mut ps2 = open_lazy(graph2);
        let root2 = ps2.root().unwrap();
        assert_eq!(ps2.read_data(root2, 5).unwrap(), 0xbeec);
    }
}
