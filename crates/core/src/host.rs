//! Host-level processes: Rust applications over the simulated MMU.
//!
//! The paper's application studies (garbage collection, pointer swizzling,
//! DSM, lazy data structures) are run-time systems that *use* the exception
//! mechanism. [`HostProcess`] lets those applications be written in Rust
//! while keeping the memory behaviour honest: every access goes through the
//! simulated page tables, protection faults are materialized, and each
//! delivery/return/protect operation charges the cycle cost measured for
//! the configured [`DeliveryPath`] on the instruction-level simulator.
//!
//! Handlers are Rust closures. As in the paper, a fault taken while a
//! handler is active is a *recursive exception* and is treated as an error
//! (Section 2.2).

use std::fmt;

use efex_mips::exception::ExcCode;
use efex_mips::machine::MachineConfig;
use efex_simos::kernel::{HostFault, Kernel, KernelConfig};
use efex_simos::layout::PAGE_SIZE;
use efex_simos::vm::FaultKind;
use efex_simos::Prot;
use efex_trace::{
    EventKind, FaultClass, Metrics, SharedSink, Snapshot, StatsSnapshot, TraceEvent, TracePath,
};

use crate::delivery::{DeliveryCosts, DeliveryPath};
use crate::error::CoreError;
use crate::guestmem::{GuestMem, Protection};

/// Information handed to a fault handler.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultInfo {
    /// The hardware exception code.
    pub code: ExcCode,
    /// The faulting virtual address.
    pub vaddr: u32,
    /// Whether the access was a write.
    pub write: bool,
    /// The kernel's classification.
    pub kind: FaultKind,
    /// The value being stored, for write faults (handlers that emulate the
    /// access — debuggers, tracers — need it; a real handler would decode
    /// it from the faulting instruction's register).
    pub value: Option<u32>,
}

impl fmt::Display for FaultInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}) at {:#010x} [{}]",
            self.code,
            self.kind,
            self.vaddr,
            if self.write { "write" } else { "read" }
        )
    }
}

/// What the handler wants done with the faulting access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HandlerAction {
    /// Retry the access (the handler has amplified protection, resolved the
    /// pointer, or otherwise fixed the cause).
    Retry,
    /// Retry at a different address — the unaligned-pointer idiom: the
    /// handler resolves the tagged pointer and redirects the access to the
    /// real (aligned) location.
    Redirect(u32),
    /// Complete the access with kernel rights and continue, leaving the
    /// protection in place — the watchpoint/tracing idiom: every later
    /// access to the page still faults.
    Emulate,
    /// Abort the access; the caller receives [`CoreError::Aborted`].
    Abort,
}

/// Capabilities a handler may exercise while servicing a fault.
///
/// This is the user-level run-time system's view of the kernel interface:
/// protection changes are charged at the configured path's cost (an
/// `mprotect` on the signal path, the lean call on the fast path, a
/// user-level `utlbp` on the hardware path).
pub struct FaultCtx<'a> {
    kernel: &'a mut Kernel,
    costs: &'a DeliveryCosts,
    stats: &'a mut HostStats,
}

impl FaultCtx<'_> {
    /// Changes protection on a page-aligned region, charging one
    /// protection call.
    ///
    /// # Errors
    ///
    /// Fails on unmapped pages or misalignment.
    pub fn protect(&mut self, region: Protection) -> Result<(), CoreError> {
        protect_charged(self.kernel, self.costs, self.stats, region)
    }

    /// Toggles subpage protection on a 1 KB-aligned range (Section 3.2.4),
    /// charging one lean protection call; armed when
    /// [`Protection::restricts_writes`].
    ///
    /// # Errors
    ///
    /// Fails on misalignment or unmapped pages.
    pub fn subpage_protect(&mut self, region: Protection) -> Result<(), CoreError> {
        self.stats.protect_calls += 1;
        self.kernel
            .sys_subpage_protect(region.base(), region.len(), region.restricts_writes())?;
        Ok(())
    }

    /// Reads a word bypassing protection (kernel rights) — handlers often
    /// need to inspect the faulting location.
    ///
    /// # Errors
    ///
    /// Fails if the page is unmapped.
    pub fn read_raw(&mut self, vaddr: u32) -> Result<u32, CoreError> {
        let mut word = [0; 4];
        self.kernel.host_read_into(vaddr, &mut word)?;
        Ok(u32::from_le_bytes(word))
    }

    /// Writes a word bypassing protection (kernel rights).
    ///
    /// # Errors
    ///
    /// Fails if the page is unmapped.
    pub fn write_raw(&mut self, vaddr: u32, value: u32) -> Result<(), CoreError> {
        self.kernel
            .host_write_bytes(vaddr, &value.to_le_bytes())
            .map_err(CoreError::from)
    }

    /// Charges handler compute cycles (handlers model their own work).
    pub fn charge(&mut self, cycles: u64) {
        self.kernel.charge(cycles);
    }
}

/// Counters kept by a [`HostProcess`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Faults delivered to the handler.
    pub faults_delivered: u64,
    /// Loads + stores performed.
    pub accesses: u64,
    /// Protection-change calls.
    pub protect_calls: u64,
    /// Pages eagerly amplified before delivery.
    pub eager_amplified: u64,
    /// Kernel subpage emulations (invisible to the application).
    pub subpage_emulated: u64,
    /// Deliveries that could not take the configured path and fell back to
    /// Unix-signal costs (fault injection, recursive-fault fallback).
    pub degraded_deliveries: u64,
}

impl Snapshot for HostStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::new("host")
            .counter("faults_delivered", self.faults_delivered)
            .counter("accesses", self.accesses)
            .counter("protect_calls", self.protect_calls)
            .counter("eager_amplified", self.eager_amplified)
            .counter("subpage_emulated", self.subpage_emulated)
            .counter("degraded_deliveries", self.degraded_deliveries)
    }
}

/// What a [`HostProcess`] does when a delivery cannot take the configured
/// path — a recursive fault, or an injected loss of fast-path state.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DegradePolicy {
    /// Recursive faults are errors (the paper's Section 2.2 semantics);
    /// injected degradations still fall back to Unix-signal costs.
    #[default]
    Strict,
    /// Recursive faults are completed with kernel rights at Unix-signal
    /// cost and counted as degraded deliveries — the application survives
    /// where `Strict` would surface [`CoreError::RecursiveFault`].
    FallbackUnix,
}

/// Builds a [`HostProcess`] — the same fluent shape as
/// [`System::builder`](crate::System::builder).
#[derive(Clone)]
pub struct HostBuilder {
    path: DeliveryPath,
    phys_bytes: usize,
    eager_amplification: bool,
    access_cost: u64,
    trace: Option<SharedSink>,
    degrade_policy: DegradePolicy,
    machine: Option<MachineConfig>,
}

impl fmt::Debug for HostBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostBuilder")
            .field("path", &self.path)
            .field("phys_bytes", &self.phys_bytes)
            .field("eager_amplification", &self.eager_amplification)
            .field("access_cost", &self.access_cost)
            .field("trace", &self.trace.is_some())
            .field("degrade_policy", &self.degrade_policy)
            .field("machine", &self.machine)
            .finish()
    }
}

impl Default for HostBuilder {
    fn default() -> HostBuilder {
        HostBuilder {
            path: DeliveryPath::FastUser,
            phys_bytes: efex_simos::layout::DEFAULT_PHYS_BYTES,
            eager_amplification: false,
            access_cost: 2,
            trace: None,
            degrade_policy: DegradePolicy::default(),
            machine: None,
        }
    }
}

impl HostBuilder {
    /// Selects the delivery path to model.
    pub fn delivery(mut self, path: DeliveryPath) -> HostBuilder {
        self.path = path;
        self
    }

    /// Sets the physical memory size for the underlying machine.
    pub fn phys_bytes(mut self, bytes: usize) -> HostBuilder {
        self.phys_bytes = bytes;
        self
    }

    /// Enables eager amplification (fast/hardware paths only;
    /// Section 3.2.3).
    pub fn eager_amplification(mut self, on: bool) -> HostBuilder {
        self.eager_amplification = on;
        self
    }

    /// Sets the cycles charged per application memory access (models the
    /// application's own load/store, warm cache).
    pub fn access_cost(mut self, cycles: u64) -> HostBuilder {
        self.access_cost = cycles;
        self
    }

    /// Routes exception lifecycle events to `sink` (shared with the
    /// kernel; the default [`NullSink`] drops them for free).
    ///
    /// [`NullSink`]: efex_trace::NullSink
    pub fn trace_sink(mut self, sink: SharedSink) -> HostBuilder {
        self.trace = Some(sink);
        self
    }

    /// Sets what happens when a delivery cannot take the configured path
    /// (default [`DegradePolicy::Strict`]).
    pub fn degrade_policy(mut self, policy: DegradePolicy) -> HostBuilder {
        self.degrade_policy = policy;
        self
    }

    /// Selects the machine configuration (execution engine).
    /// Unset, the booting thread's scoped default applies — see
    /// [`efex_mips::machine::with_machine_config`].
    pub fn machine_config(mut self, cfg: MachineConfig) -> HostBuilder {
        self.machine = Some(cfg);
        self
    }

    /// Boots the kernel and creates the process.
    ///
    /// # Errors
    ///
    /// Fails if the kernel cannot boot.
    pub fn build(self) -> Result<HostProcess, CoreError> {
        let mut kernel = Kernel::boot(KernelConfig {
            phys_bytes: self.phys_bytes,
            machine: self.machine,
            ..KernelConfig::default()
        })?;
        kernel.set_trace_path(self.path.into());
        if let Some(sink) = self.trace {
            kernel.set_trace_sink(sink);
        }
        kernel.set_eager_amplification(
            self.eager_amplification && self.path != DeliveryPath::UnixSignals,
        );
        Ok(HostProcess {
            kernel,
            path: self.path,
            costs: DeliveryCosts::for_path(self.path),
            handler: None,
            handler_name: None,
            in_handler: false,
            stats: HostStats::default(),
            metrics: Metrics::new(),
            access_cost: self.access_cost,
            next_alloc: efex_simos::layout::USER_DATA_VADDR,
            degrade_policy: self.degrade_policy,
            degrade_next: 0,
        })
    }
}

type Handler = Box<dyn FnMut(&mut FaultCtx<'_>, FaultInfo) -> HandlerAction>;

/// A typed fault-handler registration: the closure plus a diagnostic name.
///
/// Built fluently, like every builder in the workspace:
///
/// ```no_run
/// use efex_core::{HandlerAction, HandlerSpec, HostProcess};
///
/// # fn main() -> Result<(), efex_core::CoreError> {
/// let mut host = HostProcess::builder().build()?;
/// host.set_handler(
///     HandlerSpec::new(|_ctx, _info| HandlerAction::Retry).named("gc-barrier"),
/// );
/// assert_eq!(host.handler_name(), Some("gc-barrier"));
/// # Ok(())
/// # }
/// ```
pub struct HandlerSpec {
    name: &'static str,
    handler: Handler,
}

impl HandlerSpec {
    /// Wraps a handler closure under the default name `"handler"`.
    pub fn new(
        handler: impl FnMut(&mut FaultCtx<'_>, FaultInfo) -> HandlerAction + 'static,
    ) -> HandlerSpec {
        HandlerSpec {
            name: "handler",
            handler: Box::new(handler),
        }
    }

    /// Names the handler for diagnostics (`Debug` output, fleet reports).
    pub fn named(mut self, name: &'static str) -> HandlerSpec {
        self.name = name;
        self
    }

    /// The diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl fmt::Debug for HandlerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HandlerSpec")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// A Rust application running over the simulated MMU with fault delivery.
pub struct HostProcess {
    kernel: Kernel,
    path: DeliveryPath,
    costs: DeliveryCosts,
    handler: Option<Handler>,
    handler_name: Option<&'static str>,
    in_handler: bool,
    stats: HostStats,
    metrics: Metrics,
    access_cost: u64,
    next_alloc: u32,
    degrade_policy: DegradePolicy,
    /// Deliveries remaining that are forced onto the Unix-cost fallback
    /// (fault injection: models comm-page loss at the host level).
    degrade_next: u64,
}

impl fmt::Debug for HostProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostProcess")
            .field("path", &self.path)
            .field("handler", &self.handler_name)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl HostProcess {
    /// Starts building a process (mirrors [`System::builder`]).
    ///
    /// [`System::builder`]: crate::System::builder
    pub fn builder() -> HostBuilder {
        HostBuilder::default()
    }

    /// The configured delivery path.
    pub fn path(&self) -> DeliveryPath {
        self.path
    }

    /// The cost profile in force.
    pub fn costs(&self) -> &DeliveryCosts {
        &self.costs
    }

    /// Simulated cycles so far.
    pub fn cycles(&self) -> u64 {
        self.kernel.cycles()
    }

    /// Simulated microseconds so far.
    pub fn micros(&self) -> f64 {
        self.kernel.micros()
    }

    /// Charges application compute cycles.
    pub fn charge(&mut self, cycles: u64) {
        self.kernel.charge(cycles);
    }

    /// The statistics counters.
    pub fn stats(&self) -> &HostStats {
        &self.stats
    }

    /// Exception metrics: per-(path, class) counters, phase histograms, and
    /// per-page fault counts for the faults this process delivered.
    pub fn trace_metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Emits one lifecycle event stamped with the current cycle counter.
    fn emit(&self, kind: EventKind, class: FaultClass, fault: &HostFault) {
        self.kernel.trace_sink().emit(&TraceEvent {
            seq: 0,
            cycles: self.kernel.cycles(),
            kind,
            path: self.path.into(),
            class,
            exc_code: fault.code.code() as u8,
            vaddr: fault.vaddr,
            pc: 0,
        });
    }

    /// Read-only access to the underlying kernel (stats, page-table and
    /// machine inspection).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Access to the underlying kernel (advanced uses: subpage setup,
    /// TLB grants, page-table inspection).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// Checkpoints this process: the full kernel state plus the host-side
    /// delivery accounting (stats, access cost, allocation cursor, degrade
    /// policy, pending injected degradations).
    ///
    /// The registered fault handler is a host-side Rust closure and is
    /// *never* serialized — restore keeps the receiver's handler (see
    /// [`crate::HostSnapshot`]). For the same reason a snapshot cannot be
    /// taken while a handler invocation is on the host stack: the
    /// closure's in-flight state would be load-bearing and unsaveable.
    /// Guest-side delivery state, including the vulnerable window between
    /// the comm-frame save and handler entry, lives entirely in guest
    /// memory and CP0 and round-trips fine.
    ///
    /// # Errors
    ///
    /// [`CoreError::Invalid`] when called from inside a fault handler.
    pub fn snapshot(&mut self) -> Result<crate::HostSnapshot, CoreError> {
        if self.in_handler {
            return Err(CoreError::Invalid(
                "cannot checkpoint while a fault handler is running — the \
                 handler closure's state lives on the host stack"
                    .into(),
            ));
        }
        Ok(crate::HostSnapshot {
            path: self.path,
            kernel: self.kernel.snapshot(),
            stats: self.stats,
            access_cost: self.access_cost,
            next_alloc: self.next_alloc,
            degrade_policy: self.degrade_policy,
            degrade_next: self.degrade_next,
        })
    }

    /// Restores a checkpoint taken by [`HostProcess::snapshot`]. The
    /// receiver must be built with the same delivery path and must not be
    /// inside a handler invocation; it keeps its own registered handler
    /// closure and metrics/trace plane.
    ///
    /// # Errors
    ///
    /// [`CoreError::Invalid`] on path mismatch or when called from inside
    /// a handler; kernel-level snapshot errors propagate as
    /// [`CoreError::Kernel`].
    pub fn restore(&mut self, s: &crate::HostSnapshot) -> Result<(), CoreError> {
        if self.in_handler {
            return Err(CoreError::Invalid(
                "cannot restore while a fault handler is running".into(),
            ));
        }
        if s.path != self.path {
            return Err(CoreError::Invalid(format!(
                "snapshot was taken on the {} path, this process delivers via {}",
                s.path, self.path
            )));
        }
        self.kernel.restore(&s.kernel)?;
        self.stats = s.stats;
        self.access_cost = s.access_cost;
        self.next_alloc = s.next_alloc;
        self.degrade_policy = s.degrade_policy;
        self.degrade_next = s.degrade_next;
        Ok(())
    }

    /// Health-plane snapshot: the kernel's [`Kernel::health_snapshot`]
    /// merged with this host's own delivery counters. Pure read — charges
    /// no simulated cycles.
    pub fn health_snapshot(&self) -> StatsSnapshot {
        let mut snap = self.kernel.health_snapshot();
        snap.component = "host-health";
        for (name, value) in self.stats.snapshot().counters {
            // `degraded_deliveries` exists in both; the kernel's copy counts
            // the same degradations from the other side, so keep them
            // distinct rather than summing.
            if name == "degraded_deliveries" {
                snap.counters
                    .push(("host_degraded_deliveries".into(), value));
            } else {
                snap.counters.push((name, value));
            }
        }
        snap
    }

    /// Whether eager amplification is on.
    pub fn eager_amplification(&self) -> bool {
        self.kernel.process().fast.eager_amplification
    }

    /// Registers the fault handler, replacing any previous one.
    pub fn set_handler(&mut self, spec: HandlerSpec) {
        self.handler_name = Some(spec.name);
        self.handler = Some(spec.handler);
    }

    /// Removes the handler.
    pub fn clear_handler(&mut self) {
        self.handler = None;
        self.handler_name = None;
    }

    /// The registered handler's diagnostic name, if any.
    pub fn handler_name(&self) -> Option<&'static str> {
        self.handler_name
    }

    /// The degradation policy in force.
    pub fn degrade_policy(&self) -> DegradePolicy {
        self.degrade_policy
    }

    /// Fault injection: forces the next `n` deliveries onto the Unix-cost
    /// fallback (models the loss of fast-path state — e.g. an evicted comm
    /// page — at the host level). Handlers still run; the deliveries are
    /// counted in [`HostStats::degraded_deliveries`] and in the metrics
    /// snapshot's `degraded_deliveries` counter.
    pub fn inject_degrade_next_deliveries(&mut self, n: u64) {
        self.degrade_next = self.degrade_next.saturating_add(n);
    }

    /// Consumes one queued injected degradation, if any: counts it in
    /// [`HostStats::degraded_deliveries`] and the metrics, and returns
    /// `true`. Subsystems that drive their own fault handling off the
    /// kernel (the DSM coherence protocol reads faults directly) call this
    /// at their delivery point and charge Unix-signal costs when it fires;
    /// `HostProcess::deliver`-based subsystems never need it.
    pub fn consume_injected_degradation(&mut self, class: FaultClass) -> bool {
        if self.degrade_next == 0 {
            return false;
        }
        self.degrade_next -= 1;
        self.stats.degraded_deliveries += 1;
        self.metrics.record_degraded(self.path.into(), class);
        true
    }

    // --- memory management -------------------------------------------------

    /// Fills `out` from `vaddr` with kernel rights: the bulk form of
    /// [`GuestMem::read_raw`], one page-table walk per page. Run-time
    /// systems read heap spans with it.
    ///
    /// # Errors
    ///
    /// Fails if a page of the span is unmapped.
    pub fn read_raw_into(&mut self, vaddr: u32, out: &mut [u8]) -> Result<(), CoreError> {
        self.kernel.host_read_into(vaddr, out)?;
        Ok(())
    }

    /// Maps a page-aligned region with the given protection.
    ///
    /// # Errors
    ///
    /// Fails on overlap or misalignment.
    pub fn map(&mut self, vaddr: u32, len: u32, prot: Prot) -> Result<(), CoreError> {
        self.kernel.map_user_region(vaddr, len, prot)?;
        Ok(())
    }

    /// Allocates a fresh page-aligned region of at least `len` bytes in the
    /// data segment and returns its base address.
    ///
    /// # Errors
    ///
    /// Fails when the address space region is exhausted.
    pub fn alloc_region(&mut self, len: u32, prot: Prot) -> Result<u32, CoreError> {
        let len = (len + PAGE_SIZE - 1) & !(PAGE_SIZE - 1);
        let base = self.next_alloc;
        self.kernel.map_user_region(base, len, prot)?;
        // Leave a guard page between regions: stray accesses fault loudly.
        self.next_alloc = base + len + PAGE_SIZE;
        Ok(base)
    }

    // --- delivery ---------------------------------------------------------------

    fn deliver_store(&mut self, fault: HostFault, value: u32) -> Result<Deliverance, CoreError> {
        // Subpage engine first: an access to an unprotected subpage of a
        // managed page is emulated by the kernel, invisibly (Section 3.2.4).
        if fault.kind == FaultKind::Protection
            && self.kernel.process().subpage.manages(fault.vaddr)
            && !self.kernel.process().subpage.is_protected(fault.vaddr)
        {
            // Take the exception + emulate the store with kernel rights.
            self.kernel
                .charge(efex_mips::cycles::EXCEPTION_ENTRY + self.costs.subpage_emulate);
            self.kernel
                .host_write_bytes(fault.vaddr, &value.to_le_bytes())?;
            self.kernel.process_mut().stats.subpage_emulations += 1;
            self.stats.subpage_emulated += 1;
            self.metrics
                .record_page_fault(self.path.into(), FaultClass::Subpage, fault.vaddr);
            return Ok(Deliverance::Emulated);
        }
        self.deliver(fault, Some(value)).map(Deliverance::Handled)
    }

    fn deliver(
        &mut self,
        fault: HostFault,
        value: Option<u32>,
    ) -> Result<HandlerAction, CoreError> {
        let info = FaultInfo {
            code: fault.code,
            vaddr: fault.vaddr,
            write: fault.write,
            kind: fault.kind,
            value,
        };
        if self.in_handler {
            // Recursive exception. The paper routes these to the kernel as
            // errors (Section 2.2); under `FallbackUnix` the kernel instead
            // completes the access with kernel rights at Unix-signal cost
            // and counts the delivery as degraded.
            match self.degrade_policy {
                DegradePolicy::Strict => return Err(CoreError::RecursiveFault(info)),
                DegradePolicy::FallbackUnix => {
                    let unix = DeliveryCosts::for_path(DeliveryPath::UnixSignals);
                    self.kernel.charge(unix.simple_deliver + unix.simple_return);
                    self.stats.degraded_deliveries += 1;
                    let class = FaultClass::Other;
                    self.metrics.record_degraded(self.path.into(), class);
                    return Ok(HandlerAction::Emulate);
                }
            }
        }
        if self.handler.is_none() {
            return Err(CoreError::Unhandled(info));
        }

        // An injected degradation forces this delivery onto Unix-signal
        // costs: the handler still runs (the signal machinery reaches it),
        // but the fast path's cycle advantage is gone for this fault.
        let degraded = if self.degrade_next > 0 {
            self.degrade_next -= 1;
            true
        } else {
            false
        };
        let costs = if degraded {
            DeliveryCosts::for_path(DeliveryPath::UnixSignals)
        } else {
            self.costs
        };

        // Charge the delivery cost for this fault class on this path.
        let subpage = self.kernel.process().subpage.manages(fault.vaddr);
        let class = if subpage {
            FaultClass::Subpage
        } else {
            match fault.code {
                ExcCode::AddrErrLoad | ExcCode::AddrErrStore => FaultClass::Unaligned,
                ExcCode::Breakpoint => FaultClass::Breakpoint,
                _ => match fault.kind {
                    FaultKind::NotResident => FaultClass::PageFault,
                    FaultKind::Protection => FaultClass::WriteProtect,
                    FaultKind::NotMapped => FaultClass::Other,
                },
            }
        };
        let trace_path: TracePath = self.path.into();
        let t_raised = self.kernel.cycles();
        self.emit(EventKind::FaultRaised, class, &fault);
        self.emit(EventKind::KernelEntered, class, &fault);
        let deliver_cost = match (fault.kind, subpage) {
            (FaultKind::Protection | FaultKind::NotMapped, true) => costs.subpage_deliver,
            (FaultKind::Protection | FaultKind::NotMapped, false) if fault.code.is_tlb() => {
                costs.prot_deliver
            }
            _ => costs.simple_deliver,
        };
        self.kernel.charge(deliver_cost);
        if degraded {
            self.stats.degraded_deliveries += 1;
        }

        // Eager amplification: grant access before vectoring (Section 3.2.3).
        if self.eager_amplification()
            && fault.kind == FaultKind::Protection
            && self.kernel.process().space().pte(fault.vaddr).is_some()
        {
            let page = fault.vaddr & !(PAGE_SIZE - 1);
            self.kernel
                .process_mut()
                .space_mut()
                .protect_region(page, PAGE_SIZE, Prot::ReadWrite)
                .map_err(efex_simos::KernelError::Map)?;
            self.stats.eager_amplified += 1;
            self.kernel.process_mut().stats.eager_amplifications += 1;
        }

        // Subpage delivery amplifies the hardware page *before* vectoring
        // (Section 3.2.4: "the kernel enables user access to the entire
        // page and vectors to the user handler"); the handler may itself
        // re-enable protection checks afterwards.
        let amplified_subpage = subpage && fault.kind == FaultKind::Protection;
        if amplified_subpage {
            let page = fault.vaddr & !(PAGE_SIZE - 1);
            self.kernel
                .process_mut()
                .space_mut()
                .protect_region(page, PAGE_SIZE, Prot::ReadWrite)
                .map_err(efex_simos::KernelError::Map)?;
        }

        // Run the handler.
        let t_entered = self.kernel.cycles();
        self.emit(EventKind::StateSaved, class, &fault);
        self.emit(EventKind::HandlerEntered, class, &fault);
        self.metrics
            .record_deliver(trace_path, class, t_entered - t_raised);
        self.metrics
            .record_page_fault(trace_path, class, fault.vaddr);
        if degraded {
            self.metrics.record_degraded(trace_path, class);
        }
        self.in_handler = true;
        let Some(mut handler) = self.handler.take() else {
            // Checked above; a typed error beats a panic if a handler ever
            // unregisters itself mid-delivery.
            self.in_handler = false;
            return Err(CoreError::Unhandled(info));
        };
        let action = {
            let mut ctx = FaultCtx {
                kernel: &mut self.kernel,
                costs: &costs,
                stats: &mut self.stats,
            };
            handler(&mut ctx, info)
        };
        self.handler = Some(handler);
        self.in_handler = false;
        self.stats.faults_delivered += 1;
        let t_returned = self.kernel.cycles();
        self.emit(EventKind::HandlerReturned, class, &fault);
        self.metrics
            .record_handler(trace_path, class, t_returned - t_entered);

        // An emulating handler (watchpoints) keeps its protection: if the
        // page is still under subpage management, restore the hardware
        // write-protection the pre-vectoring amplification removed.
        if action == HandlerAction::Emulate
            && amplified_subpage
            && self.kernel.process().subpage.manages(fault.vaddr)
        {
            let page = fault.vaddr & !(PAGE_SIZE - 1);
            self.kernel
                .process_mut()
                .space_mut()
                .protect_region(page, PAGE_SIZE, Prot::Read)
                .map_err(efex_simos::KernelError::Map)?;
        }

        // Charge the return-to-application cost.
        self.kernel.charge(costs.simple_return);
        self.emit(EventKind::Resumed, class, &fault);
        self.metrics
            .record_return(trace_path, class, self.kernel.cycles() - t_returned);

        if action == HandlerAction::Abort {
            return Err(CoreError::Aborted(info));
        }
        Ok(action)
    }
}

impl GuestMem for HostProcess {
    /// Loads a word with full fault semantics: protection/unmapped faults
    /// are delivered to the registered handler on the configured path, then
    /// the access is retried (or redirected/emulated per the handler's
    /// [`HandlerAction`]).
    fn load_u32(&mut self, vaddr: u32) -> Result<u32, CoreError> {
        self.stats.accesses += 1;
        self.kernel.charge(self.access_cost);
        let mut addr = vaddr;
        for _attempt in 0..MAX_RETRIES {
            match self.kernel.host_load_u32(addr) {
                Ok(v) => return Ok(v),
                Err(fault) => match self.deliver(fault, None)? {
                    HandlerAction::Retry => {}
                    HandlerAction::Redirect(a) => addr = a,
                    HandlerAction::Emulate => {
                        // Perform the load with kernel rights, leaving the
                        // protection in place.
                        self.kernel.charge(efex_simos::costs::SUBPAGE_EMULATE);
                        let mut word = [0; 4];
                        self.kernel.host_read_into(addr, &mut word)?;
                        return Ok(u32::from_le_bytes(word));
                    }
                    HandlerAction::Abort => unreachable!("deliver maps Abort to Err"),
                },
            }
        }
        Err(CoreError::Measurement(format!(
            "load at {vaddr:#x} still faulting after {MAX_RETRIES} handler retries"
        )))
    }

    fn store_u32(&mut self, vaddr: u32, value: u32) -> Result<(), CoreError> {
        self.stats.accesses += 1;
        self.kernel.charge(self.access_cost);
        let mut addr = vaddr;
        for _attempt in 0..MAX_RETRIES {
            match self.kernel.host_store_u32(addr, value) {
                Ok(()) => return Ok(()),
                Err(fault) => match self.deliver_store(fault, value)? {
                    Deliverance::Handled(HandlerAction::Retry) => {}
                    Deliverance::Handled(HandlerAction::Redirect(a)) => addr = a,
                    Deliverance::Handled(HandlerAction::Emulate) => {
                        self.kernel.charge(efex_simos::costs::SUBPAGE_EMULATE);
                        self.kernel.host_write_bytes(addr, &value.to_le_bytes())?;
                        return Ok(());
                    }
                    Deliverance::Handled(HandlerAction::Abort) => {
                        unreachable!("deliver maps Abort to Err")
                    }
                    Deliverance::Emulated => return Ok(()),
                },
            }
        }
        Err(CoreError::Measurement(format!(
            "store at {vaddr:#x} still faulting after {MAX_RETRIES} handler retries"
        )))
    }

    /// Reads a word with kernel rights (no faults, no delivery): run-time
    /// system internals such as GC scanning use this.
    fn read_raw(&mut self, vaddr: u32) -> Result<u32, CoreError> {
        let mut word = [0; 4];
        self.kernel.host_read_into(vaddr, &mut word)?;
        Ok(u32::from_le_bytes(word))
    }

    fn write_raw(&mut self, vaddr: u32, value: u32) -> Result<(), CoreError> {
        self.kernel
            .host_write_bytes(vaddr, &value.to_le_bytes())
            .map_err(CoreError::from)
    }

    /// Changes protection on a page-aligned region, charging one protection
    /// call on the configured delivery path plus per-page page-table work,
    /// and shooting down the affected TLB entries.
    fn protect(&mut self, region: Protection) -> Result<(), CoreError> {
        protect_charged(&mut self.kernel, &self.costs, &mut self.stats, region)
    }

    fn subpage_protect(&mut self, region: Protection) -> Result<(), CoreError> {
        self.stats.protect_calls += 1;
        self.kernel
            .sys_subpage_protect(region.base(), region.len(), region.restricts_writes())?;
        Ok(())
    }
}

enum Deliverance {
    Handled(HandlerAction),
    Emulated,
}

const MAX_RETRIES: u32 = 8;

fn protect_charged(
    kernel: &mut Kernel,
    costs: &DeliveryCosts,
    stats: &mut HostStats,
    region: Protection,
) -> Result<(), CoreError> {
    stats.protect_calls += 1;
    let pages = u64::from(region.len().div_ceil(PAGE_SIZE));
    kernel.charge(costs.protect_call + costs.protect_per_page * pages);
    // The uncharged kernel half does the page-table work; we already
    // charged the modeled cost above, so use the internal (free) interface.
    let touched = kernel
        .process_mut()
        .space_mut()
        .protect_region(region.base(), region.len(), region.prot())
        .map_err(efex_simos::KernelError::Map)?;
    let asid = kernel.process().space().asid();
    for page in touched {
        kernel.machine_mut().tlb_mut().invalidate_page(page, asid);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn host(path: DeliveryPath) -> HostProcess {
        HostProcess::builder().delivery(path).build().unwrap()
    }

    #[test]
    fn plain_access_round_trips() {
        let mut h = host(DeliveryPath::FastUser);
        let base = h.alloc_region(8192, Prot::ReadWrite).unwrap();
        h.store_u32(base + 4, 77).unwrap();
        assert_eq!(h.load_u32(base + 4).unwrap(), 77);
        assert_eq!(h.stats().faults_delivered, 0);
    }

    #[test]
    fn unhandled_protection_fault_errors() {
        let mut h = host(DeliveryPath::FastUser);
        let base = h.alloc_region(4096, Prot::Read).unwrap();
        match h.store_u32(base, 1) {
            Err(CoreError::Unhandled(info)) => {
                assert_eq!(info.vaddr, base);
                assert!(info.write);
            }
            other => panic!("expected Unhandled, got {other:?}"),
        }
    }

    #[test]
    fn write_barrier_handler_amplifies_and_retries() {
        let mut h = host(DeliveryPath::FastUser);
        let base = h.alloc_region(4096, Prot::ReadWrite).unwrap();
        h.store_u32(base, 0).unwrap();
        h.protect(Protection::region(base, 4096).read_only())
            .unwrap();
        let dirty: Rc<RefCell<Vec<u32>>> = Rc::default();
        let log = dirty.clone();
        h.set_handler(HandlerSpec::new(move |ctx, info| {
            log.borrow_mut().push(info.vaddr & !0xfff);
            ctx.protect(Protection::region(info.vaddr & !0xfff, 4096).read_write())
                .unwrap();
            HandlerAction::Retry
        }));
        h.store_u32(base + 8, 42).unwrap();
        assert_eq!(h.load_u32(base + 8).unwrap(), 42);
        assert_eq!(*dirty.borrow(), vec![base]);
        assert_eq!(h.stats().faults_delivered, 1);
        // Subsequent stores to the now-writable page are silent.
        h.store_u32(base + 12, 1).unwrap();
        assert_eq!(h.stats().faults_delivered, 1);
    }

    #[test]
    fn eager_amplification_spares_the_handler_a_protect_call() {
        let mut h = HostProcess::builder()
            .delivery(DeliveryPath::FastUser)
            .eager_amplification(true)
            .build()
            .unwrap();
        let base = h.alloc_region(4096, Prot::ReadWrite).unwrap();
        h.store_u32(base, 0).unwrap();
        h.protect(Protection::region(base, 4096).read_only())
            .unwrap();
        h.set_handler(HandlerSpec::new(|_, _| HandlerAction::Retry)); // no protect needed
        h.store_u32(base, 9).unwrap();
        assert_eq!(h.stats().eager_amplified, 1);
        assert_eq!(h.load_u32(base).unwrap(), 9);
    }

    #[test]
    fn redirect_resolves_unaligned_pointers() {
        let mut h = host(DeliveryPath::FastUser);
        let base = h.alloc_region(4096, Prot::ReadWrite).unwrap();
        h.store_u32(base + 16, 1234).unwrap();
        h.set_handler(HandlerSpec::new(move |_, info| {
            // Unaligned tag: real address is vaddr - 2.
            HandlerAction::Redirect(info.vaddr - 2)
        }));
        assert_eq!(h.load_u32(base + 18).unwrap(), 1234);
        assert_eq!(h.stats().faults_delivered, 1);
    }

    #[test]
    fn recursive_fault_is_an_error() {
        // A handler that itself triggers a protected access cannot be
        // delivered recursively; but the host API delivers faults only on
        // load_u32/store_u32 of the *application*, so recursion means the
        // handler called back into the app path. Simulate via Abort check:
        let mut h = host(DeliveryPath::FastUser);
        let base = h.alloc_region(4096, Prot::Read).unwrap();
        h.set_handler(HandlerSpec::new(|_, _| HandlerAction::Abort));
        match h.store_u32(base, 1) {
            Err(CoreError::Aborted(_)) => {}
            other => panic!("expected Aborted, got {other:?}"),
        }
    }

    #[test]
    fn delivery_costs_accrue_per_path() {
        let mut cycle_counts = Vec::new();
        for path in [
            DeliveryPath::UnixSignals,
            DeliveryPath::FastUser,
            DeliveryPath::HardwareVectored,
        ] {
            let mut h = host(path);
            let base = h.alloc_region(4096, Prot::ReadWrite).unwrap();
            h.store_u32(base, 0).unwrap();
            h.protect(Protection::region(base, 4096).read_only())
                .unwrap();
            h.set_handler(HandlerSpec::new(move |ctx, info| {
                ctx.protect(Protection::region(info.vaddr & !0xfff, 4096).read_write())
                    .unwrap();
                HandlerAction::Retry
            }));
            let before = h.cycles();
            h.store_u32(base, 1).unwrap();
            cycle_counts.push(h.cycles() - before);
        }
        assert!(
            cycle_counts[0] > 4 * cycle_counts[1],
            "signals {} vs fast {}",
            cycle_counts[0],
            cycle_counts[1]
        );
        assert!(
            cycle_counts[1] > cycle_counts[2],
            "fast {} vs hardware {}",
            cycle_counts[1],
            cycle_counts[2]
        );
    }

    #[test]
    fn subpage_managed_stores_emulate_invisibly() {
        let mut h = host(DeliveryPath::FastUser);
        let base = h.alloc_region(4096, Prot::ReadWrite).unwrap();
        h.store_u32(base, 0).unwrap();
        // Protect only the first 1 KB subpage.
        h.subpage_protect(Protection::region(base, 1024).read_only())
            .unwrap();
        h.set_handler(HandlerSpec::new(|_, _| HandlerAction::Retry));
        // Store into an unprotected subpage: emulated, no handler call.
        h.store_u32(base + 2048, 5).unwrap();
        assert_eq!(h.stats().subpage_emulated, 1);
        assert_eq!(h.stats().faults_delivered, 0);
        assert_eq!(h.read_raw(base + 2048).unwrap(), 5);
        // Store into the protected subpage: delivered.
        h.store_u32(base + 4, 6).unwrap();
        assert_eq!(h.stats().faults_delivered, 1);
        assert_eq!(h.load_u32(base + 4).unwrap(), 6);
    }

    #[test]
    fn delivery_emits_ordered_lifecycle_events_and_metrics() {
        let ring = Rc::new(efex_trace::RingSink::new());
        let mut h = HostProcess::builder()
            .delivery(DeliveryPath::FastUser)
            .trace_sink(ring.clone())
            .build()
            .unwrap();
        let base = h.alloc_region(4096, Prot::ReadWrite).unwrap();
        h.store_u32(base, 0).unwrap();
        h.protect(Protection::region(base, 4096).read_only())
            .unwrap();
        h.set_handler(HandlerSpec::new(move |ctx, info| {
            ctx.protect(Protection::region(info.vaddr & !0xfff, 4096).read_write())
                .unwrap();
            HandlerAction::Retry
        }));
        h.store_u32(base, 7).unwrap();

        use efex_trace::EventKind::*;
        let events = ring.events();
        let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                FaultRaised,
                KernelEntered,
                StateSaved,
                HandlerEntered,
                HandlerReturned,
                Resumed
            ]
        );
        assert!(events.windows(2).all(|w| w[0].cycles <= w[1].cycles));
        assert!(events.iter().all(|e| e.vaddr == base));

        let m = h.trace_metrics();
        let k = m.kind(
            efex_trace::TracePath::FastUser,
            efex_trace::FaultClass::WriteProtect,
        );
        assert_eq!(k.count, 1);
        assert_eq!(k.deliver.count(), 1);
        assert_eq!(k.handler.count(), 1);
        assert_eq!(k.ret.count(), 1);
        assert_eq!(k.pages.get(&(base >> 12)), Some(&1));
    }

    #[test]
    fn injected_degradation_charges_unix_costs_and_counts() {
        let mut fast = host(DeliveryPath::FastUser);
        let mut degraded = host(DeliveryPath::FastUser);
        for h in [&mut fast, &mut degraded] {
            let base = h.alloc_region(4096, Prot::ReadWrite).unwrap();
            h.store_u32(base, 0).unwrap();
            h.protect(Protection::region(base, 4096).read_only())
                .unwrap();
            h.set_handler(HandlerSpec::new(move |ctx, info| {
                ctx.protect(Protection::region(info.vaddr & !0xfff, 4096).read_write())
                    .unwrap();
                HandlerAction::Retry
            }));
        }
        let base = efex_simos::layout::USER_DATA_VADDR;
        degraded.inject_degrade_next_deliveries(1);

        let t0 = fast.cycles();
        fast.store_u32(base, 1).unwrap();
        let fast_cost = fast.cycles() - t0;
        let t0 = degraded.cycles();
        degraded.store_u32(base, 1).unwrap();
        let degraded_cost = degraded.cycles() - t0;

        assert!(
            degraded_cost > 3 * fast_cost,
            "degraded {degraded_cost} vs fast {fast_cost}"
        );
        assert_eq!(degraded.stats().degraded_deliveries, 1);
        assert_eq!(fast.stats().degraded_deliveries, 0);
        assert_eq!(degraded.read_raw(base).unwrap(), 1, "handler still ran");
        assert_eq!(degraded.stats().faults_delivered, 1);
        // The injection is one-shot: the next fault takes the fast path.
        degraded
            .protect(Protection::region(base, 4096).read_only())
            .unwrap();
        let t0 = degraded.cycles();
        degraded.store_u32(base, 2).unwrap();
        assert!(degraded.cycles() - t0 <= fast_cost + 16);
        assert_eq!(degraded.stats().degraded_deliveries, 1);
    }

    #[test]
    fn degraded_deliveries_reach_the_metrics_snapshot() {
        let mut h = host(DeliveryPath::FastUser);
        let base = h.alloc_region(4096, Prot::ReadWrite).unwrap();
        h.store_u32(base, 0).unwrap();
        h.protect(Protection::region(base, 4096).read_only())
            .unwrap();
        h.set_handler(HandlerSpec::new(move |ctx, info| {
            ctx.protect(Protection::region(info.vaddr & !0xfff, 4096).read_write())
                .unwrap();
            HandlerAction::Retry
        }));
        h.inject_degrade_next_deliveries(1);
        h.store_u32(base, 1).unwrap();
        let snap = h.trace_metrics().snapshot();
        assert_eq!(snap.get("degraded_deliveries"), Some(1));
    }

    #[test]
    fn fallback_unix_policy_survives_recursive_faults() {
        // Drive deliver() with in_handler forced on — the recursive window
        // a fault inside a fault handler opens.
        let fault = HostFault {
            code: ExcCode::TlbMod,
            vaddr: 0x1000_0000,
            kind: FaultKind::Protection,
            write: true,
        };
        let mut strict = host(DeliveryPath::FastUser);
        strict.set_handler(HandlerSpec::new(|_, _| HandlerAction::Retry));
        strict.in_handler = true;
        assert!(matches!(
            strict.deliver(fault, None),
            Err(CoreError::RecursiveFault(_))
        ));

        let mut fallback = HostProcess::builder()
            .delivery(DeliveryPath::FastUser)
            .degrade_policy(DegradePolicy::FallbackUnix)
            .build()
            .unwrap();
        fallback.set_handler(HandlerSpec::new(|_, _| HandlerAction::Retry));
        fallback.in_handler = true;
        let t0 = fallback.cycles();
        let action = fallback.deliver(fault, None).unwrap();
        assert_eq!(action, HandlerAction::Emulate, "access completes inline");
        assert_eq!(fallback.stats().degraded_deliveries, 1);
        let unix = DeliveryCosts::for_path(DeliveryPath::UnixSignals);
        assert_eq!(fallback.cycles() - t0, unix.simple_round_trip());
    }

    #[test]
    fn guard_pages_between_regions_fault() {
        let mut h = host(DeliveryPath::FastUser);
        let a = h.alloc_region(4096, Prot::ReadWrite).unwrap();
        let b = h.alloc_region(4096, Prot::ReadWrite).unwrap();
        assert!(b >= a + 8192, "guard page must separate regions");
        assert!(matches!(h.load_u32(a + 4096), Err(CoreError::Unhandled(_))));
    }

    #[test]
    fn snapshot_inside_handler_is_rejected() {
        // The handler closure's in-flight state lives on the host stack and
        // cannot be serialized; both snapshot and restore refuse the window.
        let mut h = host(DeliveryPath::FastUser);
        let snap = h.snapshot().unwrap();
        h.in_handler = true;
        assert!(matches!(h.snapshot(), Err(CoreError::Invalid(_))));
        assert!(matches!(h.restore(&snap), Err(CoreError::Invalid(_))));
        h.in_handler = false;
        h.restore(&snap).unwrap();
    }

    #[test]
    fn host_snapshot_round_trips_accounting_and_memory() {
        let mut h = host(DeliveryPath::FastUser);
        let base = h.alloc_region(4096, Prot::ReadWrite).unwrap();
        let hits = std::rc::Rc::new(std::cell::Cell::new(0u32));
        let hits2 = hits.clone();
        h.set_handler(HandlerSpec::new(move |_, _| {
            hits2.set(hits2.get() + 1);
            HandlerAction::Emulate
        }));
        h.store_u32(base, 7).unwrap();
        h.protect(Protection::region(base, 4096).read_only())
            .unwrap();
        h.store_u32(base, 8).unwrap();
        let snap = h.snapshot().unwrap();
        let bytes = snap.to_bytes();

        // A fresh process (with its own handler re-registered) restored
        // from the wire continues with identical memory, stats and cycles.
        let mut g = host(DeliveryPath::FastUser);
        g.set_handler(HandlerSpec::new(|_, _| HandlerAction::Retry));
        g.restore(&crate::HostSnapshot::from_bytes(&bytes).unwrap())
            .unwrap();
        assert_eq!(g.cycles(), h.cycles(), "restored cycle clock diverged");
        assert_eq!(g.stats().faults_delivered, h.stats().faults_delivered);
        assert_eq!(g.load_u32(base).unwrap(), 8, "restored memory diverged");
        assert_eq!(hits.get(), 1, "original handler saw the protect fault");
    }
}
