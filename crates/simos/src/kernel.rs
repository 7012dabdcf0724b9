//! The kernel: machine + process + both exception delivery paths.
//!
//! [`Kernel`] owns an [`efex_mips::Machine`] and a single [`Process`] (the
//! paper's environment is a single-threaded address space). Guest execution
//! proceeds in [`Kernel::run_user`]; whenever the guest kernel stubs issue
//! an `hcall`, control returns here and the host services the request:
//!
//! - **UTLB refill** — install a TLB entry from the page table, page in
//!   from the simulated disk, or re-raise a fault it cannot satisfy at the
//!   general vector, where the guest phases route it like any other;
//! - **standard exception** — system calls and the Ultrix-style signal
//!   machinery (post → recognize → deliver → trampoline → `sigreturn`);
//! - **fast TLB exception** — the page-table half of the paper's fast path
//!   for memory-protection faults, including eager amplification and
//!   subpage emulation.
//!
//! Simple (non-TLB) fast-path exceptions never reach the host at all: the
//! guest assembly handler vectors them straight back to user mode, exactly
//! as the paper's modified Ultrix kernel does.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

use efex_mips::asm::{assemble, AsmError, Program};
use efex_mips::cp0::status;
use efex_mips::cycles;
use efex_mips::decode::decode;
use efex_mips::exception::ExcCode;
use efex_mips::isa::{Instruction, Reg};
use efex_mips::machine::{kseg_to_phys, Machine, MachineConfig, MachineError, StopReason};
use efex_mips::sem;
use efex_mips::tlb::TLB_ENTRIES;
use efex_trace::{null_sink, EventKind, FaultClass, Metrics, SharedSink, TraceEvent, TracePath};

use crate::costs;
use crate::fastexc::hcalls;
use crate::frames::FrameAllocator;
use crate::layout::{self, PAGE_SIZE};
use crate::process::Process;
use crate::signals::{self, Signal, SIGCONTEXT_BYTES};
use crate::syscall::{errno, nr, prot_from_arg};
use crate::vm::{FaultKind, MapError, Prot};

/// The signal trampoline mapped into every process's runtime area: calls
/// the handler, then issues `sigreturn` — the user-side half of Figure 1.
pub const TRAMPOLINE_ASM: &str = r#"
.org 0x00410000
tramp_sig:
    move  $s0, $a2          # sigcontext pointer survives the handler call
    jalr  $t9               # invoke the user handler(sig, code, sc)
    nop
    move  $a0, $s0
    li    $v0, 5            # SYS_sigreturn
    syscall
    nop
"#;

/// The two images every boot installs.
#[derive(Debug)]
pub struct BootImages {
    /// The guest kernel: vectors and fast-path handler
    /// ([`crate::fastexc::KERNEL_ASM`]).
    pub kernel: Program,
    /// The user-space signal trampoline ([`TRAMPOLINE_ASM`]).
    pub trampoline: Program,
}

/// The boot images, assembled once per process: they are pure functions of
/// the embedded sources. Debug builds also assert, on first use, that both
/// verify clean.
///
/// # Errors
///
/// Fails if either embedded source does not assemble.
pub fn boot_images() -> Result<&'static BootImages, AsmError> {
    static IMAGES: OnceLock<Result<BootImages, AsmError>> = OnceLock::new();
    IMAGES
        .get_or_init(|| {
            let images = BootImages {
                kernel: assemble(crate::fastexc::KERNEL_ASM)?,
                trampoline: assemble(TRAMPOLINE_ASM)?,
            };
            #[cfg(debug_assertions)]
            crate::verify::assert_boot_images_verify(&images.kernel, &images.trampoline);
            Ok(images)
        })
        .as_ref()
        .map_err(Clone::clone)
}

/// Kernel construction parameters.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelConfig {
    /// Ultrix-compatible unaligned-access fixup: instead of posting
    /// `SIGBUS`, the kernel emulates the unaligned load/store and resumes
    /// (the paper notes Ultrix "optionally tries to fix up unaligned access
    /// exceptions"). Fast-path delivery, when enabled for the exception,
    /// takes precedence — applications that *want* the fault get it.
    pub fixup_unaligned: bool,
    /// Machine construction config (execution engine).
    /// `None` inherits the booting thread's scoped default — see
    /// [`efex_mips::machine::with_machine_config`].
    pub machine: Option<MachineConfig>,
}

/// A fatal kernel error (not a guest-visible condition).
#[derive(Debug)]
pub enum KernelError {
    /// The embedded kernel/runtime assembly failed to assemble.
    Asm(AsmError),
    /// The machine reported a fatal simulation error.
    Machine(MachineError),
    /// A mapping operation failed.
    Map(MapError),
    /// The guest kernel faulted (double fault): unrecoverable.
    KernelFault(String),
    /// A delivery invariant was violated at `epc`: the kernel produces a
    /// diagnostic instead of panicking, so injected faults surface as
    /// typed errors (or specified degradations) rather than host panics.
    Delivery {
        /// What went wrong, in delivery-path terms.
        reason: String,
        /// The exception PC the delivery was servicing.
        epc: u32,
    },
    /// The pinned communication page was lost mid-delivery and its repair
    /// failed: the saved frame could not be copied to the fresh frame, or
    /// the fresh frame could not be pinned.
    CommPageLost {
        /// User virtual address of the (formerly pinned) comm page.
        comm_vaddr: u32,
    },
    /// The guest issued an hcall the host does not know.
    UnknownHcall(u32),
    /// The process already exited.
    NotRunning,
    /// A checkpoint could not be decoded or applied (wrong memory size,
    /// corrupt artifact, post-restore digest divergence). Wraps the typed
    /// wire-format error; never a panic.
    Snapshot(efex_snap::SnapError),
}

/// The simulator's unified error surface: kernel and delivery-path failures
/// are all typed [`KernelError`] variants, never panics.
pub type EfexError = KernelError;

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Asm(e) => write!(f, "assembly error: {e}"),
            KernelError::Machine(e) => write!(f, "machine error: {e}"),
            KernelError::Map(e) => write!(f, "mapping error: {e}"),
            KernelError::KernelFault(s) => write!(f, "kernel fault: {s}"),
            KernelError::Delivery { reason, epc } => {
                write!(f, "delivery fault at EPC {epc:#010x}: {reason}")
            }
            KernelError::CommPageLost { comm_vaddr } => {
                write!(f, "comm page {comm_vaddr:#010x} lost and unrepairable")
            }
            KernelError::UnknownHcall(n) => write!(f, "unknown hcall {n}"),
            KernelError::NotRunning => write!(f, "process is not running"),
            KernelError::Snapshot(e) => write!(f, "snapshot error: {e}"),
        }
    }
}

impl From<efex_snap::SnapError> for KernelError {
    fn from(e: efex_snap::SnapError) -> KernelError {
        KernelError::Snapshot(e)
    }
}

impl Error for KernelError {}

impl From<AsmError> for KernelError {
    fn from(e: AsmError) -> KernelError {
        KernelError::Asm(e)
    }
}

impl From<MachineError> for KernelError {
    fn from(e: MachineError) -> KernelError {
        KernelError::Machine(e)
    }
}

impl From<MapError> for KernelError {
    fn from(e: MapError) -> KernelError {
        KernelError::Map(e)
    }
}

/// Why [`Kernel::run_user`] returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The process called `exit`.
    Exited(i32),
    /// The step budget ran out (the process is still runnable).
    StepLimit,
    /// The process was terminated by an unhandled signal.
    Terminated(Signal),
}

/// A fault reported by the host-level access API ([`Kernel::host_load_u32`]
/// and friends): the exception a guest access at this address would raise,
/// plus the kernel's classification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HostFault {
    /// Hardware exception code.
    pub code: ExcCode,
    /// Faulting virtual address.
    pub vaddr: u32,
    /// Kernel classification from the page table.
    pub kind: FaultKind,
    /// Whether the access was a write.
    pub write: bool,
}

impl HostFault {
    /// A bus error: the page is mapped and resident, but its frame lies
    /// past physical memory, so the address has no memory behind it.
    fn bus_error(vaddr: u32, write: bool) -> HostFault {
        HostFault {
            code: ExcCode::BusErrData,
            vaddr,
            kind: FaultKind::NotMapped,
            write,
        }
    }
}

impl fmt::Display for HostFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {:#010x} ({})", self.code, self.vaddr, self.kind)
    }
}

/// A perturbation of the delivery path, applied at a defined point by the
/// fault-injection harness (`efex-inject`). Queue one with
/// [`Kernel::inject`]; the kernel consumes it during the next fast-path
/// delivery and must either recover bit-exact or degrade as specified
/// (Unix-signal fallback or kill-with-diagnostic) — never wedge or panic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InjectAction {
    /// Overwrite one word of the communication frame for `code` between the
    /// kernel's state save and the user handler's resume (models a
    /// concurrent rewrite of the comm page).
    CorruptCommWord {
        /// Exception whose frame to corrupt.
        code: ExcCode,
        /// Byte offset within the 32-byte frame.
        offset: u32,
        /// Replacement word.
        value: u32,
    },
    /// Evict the pinned communication page (page-table residency and TLB
    /// entry) before delivery starts — a pinning violation.
    EvictCommPage,
    /// Invalidate the TLB entry covering the user handler's entry point
    /// mid-delivery; the resume must refill via the slow path.
    EvictHandlerTlb,
}

/// The simulated operating system kernel.
pub struct Kernel {
    machine: Machine,
    proc: Process,
    frames: FrameAllocator,
    console: Vec<u8>,
    fixup_unaligned: bool,
    refill_rr: usize,
    kernel_syms: &'static BTreeMap<String, u32>,
    trace: SharedSink,
    trace_path: TracePath,
    metrics: Metrics,
    /// Signal deliveries in flight, innermost last: (class, code,
    /// handler-entry cycles), popped by `sigreturn` to close out the
    /// handler/return phases. A stack, because a handler can itself fault
    /// and take a second, nested delivery.
    unix_pending: Vec<(FaultClass, ExcCode, u64)>,
    /// Injected perturbations awaiting the next fast-path delivery.
    pending_injections: Vec<InjectAction>,
    /// Human-readable diagnostic from the most recent degraded delivery.
    last_diagnostic: Option<String>,
    /// Checkpoints captured from this kernel (host-side observability).
    snapshot_saves: u64,
    /// Checkpoints restored into this kernel (host-side observability).
    snapshot_restores: u64,
    /// Restores whose post-apply machine digest did not match the digest
    /// recorded at capture time. Always zero in a healthy system — the
    /// health plane's restores-are-fingerprint-clean invariant watches it.
    snapshot_restore_divergence: u64,
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("pid", &self.proc.pid())
            .field("cycles", &self.machine.cycles())
            .finish_non_exhaustive()
    }
}

impl Kernel {
    /// Boots the simulated system: builds the machine, installs the guest
    /// kernel image (vectors + fast-path handler) and the user-space signal
    /// trampoline ([`boot_images`]), and creates the initial process.
    ///
    /// # Errors
    ///
    /// Fails if the embedded images do not assemble or do not fit.
    pub fn boot(cfg: KernelConfig) -> Result<Kernel, KernelError> {
        let machine_cfg = cfg.machine.unwrap_or_else(MachineConfig::inherited);
        let mut machine = Machine::with_config(layout::DEFAULT_PHYS_BYTES, machine_cfg);
        let images = boot_images()?;
        machine.load_image(&images.kernel)?;

        let phys_frames = (layout::DEFAULT_PHYS_BYTES as u32) / PAGE_SIZE;
        let frames = FrameAllocator::new(layout::FIRST_USER_FRAME, phys_frames);
        let proc = Process::new(1, 1);
        machine.set_asid(1);

        let mut kernel = Kernel {
            machine,
            proc,
            frames,
            console: Vec::new(),
            fixup_unaligned: cfg.fixup_unaligned,
            refill_rr: 0,
            kernel_syms: images.kernel.symbols(),
            trace: null_sink(),
            trace_path: TracePath::FastUser,
            metrics: Metrics::new(),
            unix_pending: Vec::new(),
            pending_injections: Vec::new(),
            last_diagnostic: None,
            snapshot_saves: 0,
            snapshot_restores: 0,
            snapshot_restore_divergence: 0,
        };
        // Map and install the user-side runtime (signal trampoline).
        kernel.load_user_segments(&images.trampoline)?;
        Ok(kernel)
    }

    // --- accessors -------------------------------------------------------

    /// The simulated machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access (benchmarks attach profilers through this).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The current process.
    pub fn process(&self) -> &Process {
        &self.proc
    }

    /// Mutable process access.
    pub fn process_mut(&mut self) -> &mut Process {
        &mut self.proc
    }

    /// Total simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.machine.cycles()
    }

    /// Total simulated time in microseconds.
    pub fn micros(&self) -> f64 {
        cycles::to_micros(self.machine.cycles())
    }

    /// Charges host-modeled cycles.
    pub fn charge(&mut self, cy: u64) {
        self.machine.charge_cycles(cy);
    }

    /// Bytes the guest wrote to the console.
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// Address of a symbol in the guest kernel image.
    pub fn kernel_symbol(&self, name: &str) -> Option<u32> {
        self.kernel_syms.get(name).copied()
    }

    // --- exception tracing -------------------------------------------------

    /// Routes lifecycle events to `sink` (the default is a [`NullSink`]
    /// that drops everything; tracing never charges simulated cycles).
    ///
    /// [`NullSink`]: efex_trace::NullSink
    pub fn set_trace_sink(&mut self, sink: SharedSink) {
        self.trace = sink;
    }

    /// The current trace sink (shared with higher layers).
    pub fn trace_sink(&self) -> &SharedSink {
        &self.trace
    }

    /// Sets the delivery-path label stamped on kernel-side trace events
    /// (the kernel itself only distinguishes fast vs. signal delivery; the
    /// configured path disambiguates fast-user from hardware-vectored).
    pub fn set_trace_path(&mut self, path: TracePath) {
        self.trace_path = path;
    }

    /// Kernel-side exception metrics (deliveries, page faults, phases).
    pub fn trace_metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// One flat health-plane snapshot of this kernel: the per-process
    /// counters plus the machine-level effectiveness numbers (block-cache
    /// hits/misses/invalidations, TLB writes, simulated cycles) the health
    /// monitor watches. Pure read — charges no simulated cycles, so a run
    /// with health monitoring on stays bit-identical to one without.
    pub fn health_snapshot(&self) -> efex_trace::StatsSnapshot {
        use efex_trace::Snapshot as _;
        let mut snap = self.proc.stats.snapshot();
        snap.component = "kernel-health";
        let (sb_hits, sb_misses, sb_invalidations) = self.machine.superblock_stats();
        snap.counter("superblock_hits", sb_hits)
            .counter("superblock_misses", sb_misses)
            .counter("superblock_invalidations", sb_invalidations)
            .counter("snapshot_saves", self.snapshot_saves)
            .counter("snapshot_restores", self.snapshot_restores)
            .counter(
                "snapshot_restore_divergence",
                self.snapshot_restore_divergence,
            )
            .counter("cycles", self.machine.cycles())
    }

    // --- checkpoint / restore --------------------------------------------

    /// Captures the complete guest-visible state of this kernel and its
    /// process as a [`crate::snapshot::KernelState`]: the machine image
    /// (registers, CP0, TLB, memory — the pinned comm page rides along as
    /// ordinary physical pages plus its pinned PTE), the page table, signal
    /// and fast-path registrations, subpage masks, per-process stats, the
    /// frame allocator with its LIFO free list, console output, config
    /// knobs, and the in-flight Unix-delivery stack.
    ///
    /// Host-side observability (trace sink, metrics, pending injections,
    /// the last degrade diagnostic) is excluded by design — it belongs to
    /// the observer. Snapshots may be taken at *any* step boundary,
    /// including inside the vulnerable window between the comm-frame state
    /// save and handler entry: everything the resumed delivery needs is in
    /// guest memory and CP0, so such snapshots round-trip bit-exactly.
    pub fn snapshot(&mut self) -> crate::snapshot::KernelState {
        use crate::snapshot::{KernelState, PteState};
        self.snapshot_saves += 1;
        let machine = self.machine.snapshot();
        let (frames_next, frames_limit, frames_free, frames_allocated) = {
            let (n, l, f, a) = self.frames.raw_state();
            (n, l, f.to_vec(), a)
        };
        KernelState {
            machine_digest: self.machine.step_digest(),
            machine,
            pid: self.proc.pid(),
            asid: self.proc.space().asid(),
            pages: self
                .proc
                .space()
                .iter()
                .map(|(&vpn, pte)| PteState {
                    vpn,
                    pfn: pte.pfn,
                    prot: pte.prot,
                    user_modifiable: pte.user_modifiable,
                    pinned: pte.pinned,
                    dirty: pte.dirty,
                })
                .collect(),
            signal_dispositions: self.proc.signals.dispositions(),
            signals_pending: self.proc.signals.pending_raw(),
            fast: self.proc.fast,
            subpage: self.proc.subpage.iter().collect(),
            stats: self.proc.stats,
            brk: self.proc.brk,
            exited: self.proc.exit_code(),
            frames_next,
            frames_limit,
            frames_free,
            frames_allocated,
            console: self.console.clone(),
            fixup_unaligned: self.fixup_unaligned,
            refill_rr: self.refill_rr as u64,
            unix_pending: self.unix_pending.clone(),
        }
    }

    /// Restores guest-visible state captured by [`Kernel::snapshot`] into
    /// this (booted) kernel. The receiver keeps its own host-side
    /// configuration: execution engine and caches (dropped and rebuilt on
    /// demand by the machine restore), trace sink, metrics, and any pending
    /// injections — so a snapshot taken under one engine resumes bit-exact
    /// under the other.
    ///
    /// After applying the machine image, the restore recomputes the
    /// register-state digest and compares it with the digest recorded at
    /// capture time; a mismatch increments the `snapshot_restore_divergence`
    /// health counter and fails, leaving no silent corruption.
    ///
    /// # Errors
    ///
    /// [`KernelError::Snapshot`] if the snapshot does not fit this kernel
    /// (physical memory size) or fails the post-apply digest check.
    pub fn restore(&mut self, s: &crate::snapshot::KernelState) -> Result<(), KernelError> {
        use crate::snapshot::KernelState;
        self.machine.restore(&s.machine)?;
        let digest = self.machine.step_digest();
        if digest != s.machine_digest {
            self.snapshot_restore_divergence += 1;
            return Err(KernelError::Snapshot(efex_snap::SnapError::Invalid(
                format!(
                    "post-restore machine digest {digest:#018x} != recorded {:#018x}",
                    s.machine_digest
                ),
            )));
        }
        let mut proc = Process::new(s.pid, s.asid);
        for p in &s.pages {
            proc.space_mut().restore_page(p.vpn, KernelState::pte_of(p));
        }
        proc.signals
            .restore_raw(s.signal_dispositions, s.signals_pending);
        proc.fast = s.fast;
        proc.subpage.restore_raw(s.subpage.iter().copied());
        proc.stats = s.stats;
        proc.brk = s.brk;
        if let Some(code) = s.exited {
            proc.exit(code);
        }
        self.proc = proc;
        self.frames = FrameAllocator::from_raw(
            s.frames_next,
            s.frames_limit,
            s.frames_free.clone(),
            s.frames_allocated,
        );
        self.console = s.console.clone();
        self.fixup_unaligned = s.fixup_unaligned;
        self.refill_rr = s.refill_rr as usize;
        self.unix_pending = s.unix_pending.clone();
        self.snapshot_restores += 1;
        Ok(())
    }

    /// Emits one lifecycle event stamped with the current cycle counter.
    fn trace_emit(
        &self,
        kind: EventKind,
        path: TracePath,
        class: FaultClass,
        code: ExcCode,
        vaddr: u32,
        pc: u32,
    ) {
        self.trace.emit(&TraceEvent {
            seq: 0,
            cycles: self.machine.cycles(),
            kind,
            path,
            class,
            exc_code: code.code() as u8,
            vaddr,
            pc,
        });
    }

    /// Classifies a fault for tracing purposes (orthogonal to delivery: the
    /// subpage engine, the unaligned fixup, and plain breakpoints all look
    /// different to an observer even when they share an `ExcCode`).
    fn fault_class(&self, code: ExcCode, bad: Option<u32>) -> FaultClass {
        if let Some(bad) = bad {
            if self.proc.subpage.manages(bad) {
                return FaultClass::Subpage;
            }
        }
        match code {
            ExcCode::TlbMod => FaultClass::WriteProtect,
            ExcCode::TlbLoad | ExcCode::TlbStore => {
                let write = code == ExcCode::TlbStore;
                match bad.map(|b| self.proc.space().classify(b, write)) {
                    Some(Err(FaultKind::NotResident)) => FaultClass::PageFault,
                    Some(Err(FaultKind::Protection)) => FaultClass::WriteProtect,
                    _ => FaultClass::TlbMiss,
                }
            }
            ExcCode::AddrErrLoad | ExcCode::AddrErrStore => FaultClass::Unaligned,
            ExcCode::Breakpoint => FaultClass::Breakpoint,
            _ => FaultClass::Other,
        }
    }

    // --- user-space setup -------------------------------------------------

    /// Maps a user region (page aligned) with the given protection.
    ///
    /// # Errors
    ///
    /// Propagates mapping errors (misalignment, overlap).
    pub fn map_user_region(&mut self, vaddr: u32, len: u32, prot: Prot) -> Result<(), KernelError> {
        self.proc.space_mut().map_region(vaddr, len, prot)?;
        Ok(())
    }

    /// Assembles a user program and loads it into the process's address
    /// space, mapping pages as needed. Returns the program (for symbols and
    /// entry point).
    ///
    /// # Errors
    ///
    /// Fails on assembly errors or exhausted memory.
    pub fn load_user_program(&mut self, source: &str) -> Result<Program, KernelError> {
        let prog = assemble(source)?;
        self.load_user_segments(&prog)?;
        Ok(prog)
    }

    fn load_user_segments(&mut self, prog: &Program) -> Result<(), KernelError> {
        for seg in prog.segments() {
            let start = seg.addr & !(PAGE_SIZE - 1);
            let end = u32::try_from(seg.bytes.len())
                .ok()
                .and_then(|len| seg.addr.checked_add(len)?.checked_add(PAGE_SIZE - 1))
                .ok_or(KernelError::Map(MapError::OutsideUserSpace(start)))?
                & !(PAGE_SIZE - 1);
            for page in (start..end).step_by(PAGE_SIZE as usize) {
                if self.proc.space().pte(page).is_none() {
                    self.proc
                        .space_mut()
                        .map_region(page, PAGE_SIZE, Prot::ReadWrite)?;
                }
            }
            self.host_write_bytes(seg.addr, &seg.bytes)?;
        }
        Ok(())
    }

    /// Maps a user stack of `pages` pages ending at the stack top and
    /// returns the initial stack pointer.
    ///
    /// # Errors
    ///
    /// Fails if the stack region is already mapped.
    pub fn setup_stack(&mut self, pages: u32) -> Result<u32, KernelError> {
        let len = pages * PAGE_SIZE;
        let base = layout::USER_STACK_TOP - len;
        self.proc
            .space_mut()
            .map_region(base, len, Prot::ReadWrite)?;
        Ok(layout::USER_STACK_TOP - 16)
    }

    /// Starts user execution at `entry` with stack pointer `sp`.
    pub fn exec(&mut self, entry: u32, sp: u32) {
        let cp0 = self.machine.cp0_mut();
        cp0.status = (cp0.status & !0x3f) | status::KUC | status::IEC;
        self.machine.cpu_mut().set_reg(Reg::SP, sp);
        self.machine.set_pc(entry);
    }

    // --- host-level memory access (for host-level applications) ----------

    fn host_access(&mut self, vaddr: u32, write: bool) -> Result<u32, HostFault> {
        match self.proc.space().classify(vaddr, write) {
            Ok(pfn) => Ok((pfn << 12) | (vaddr & (PAGE_SIZE - 1))),
            Err(FaultKind::NotResident) => {
                // Page faults are always serviced silently by the kernel.
                let (pfn, paged_in) = self
                    .proc
                    .space_mut()
                    .ensure_resident(vaddr, &mut self.frames)
                    .map_err(|_| HostFault {
                        code: if write {
                            ExcCode::TlbStore
                        } else {
                            ExcCode::TlbLoad
                        },
                        vaddr,
                        kind: FaultKind::NotResident,
                        write,
                    })?;
                if paged_in {
                    self.machine.charge_cycles(costs::PAGE_IN);
                    self.proc.stats.page_faults += 1;
                }
                Ok((pfn << 12) | (vaddr & (PAGE_SIZE - 1)))
            }
            Err(kind) => {
                let code = match (kind, write) {
                    (FaultKind::Protection, true) => ExcCode::TlbMod,
                    (FaultKind::Protection, false) => ExcCode::TlbLoad,
                    (_, true) => ExcCode::TlbStore,
                    (_, false) => ExcCode::TlbLoad,
                };
                Err(HostFault {
                    code,
                    vaddr,
                    kind,
                    write,
                })
            }
        }
    }

    /// Loads a word from the process's address space with full fault
    /// semantics, transparently servicing page faults.
    ///
    /// # Errors
    ///
    /// Returns the fault a guest load would raise (alignment, protection,
    /// unmapped).
    pub fn host_load_u32(&mut self, vaddr: u32) -> Result<u32, HostFault> {
        if vaddr & 3 != 0 {
            return Err(HostFault {
                code: ExcCode::AddrErrLoad,
                vaddr,
                kind: FaultKind::NotMapped,
                write: false,
            });
        }
        let paddr = self.host_access(vaddr, false)?;
        self.machine
            .mem()
            .read_u32(paddr)
            .map_err(|_| HostFault::bus_error(vaddr, false))
    }

    /// Stores a word (see [`Kernel::host_load_u32`]).
    ///
    /// # Errors
    ///
    /// Returns the fault a guest store would raise.
    pub fn host_store_u32(&mut self, vaddr: u32, value: u32) -> Result<(), HostFault> {
        if vaddr & 3 != 0 {
            return Err(HostFault {
                code: ExcCode::AddrErrStore,
                vaddr,
                kind: FaultKind::NotMapped,
                write: true,
            });
        }
        let paddr = self.host_access(vaddr, true)?;
        self.machine
            .mem_mut()
            .write_u32(paddr, value)
            .map_err(|_| HostFault::bus_error(vaddr, true))
    }

    /// Writes raw bytes into the address space with kernel rights
    /// (program loading); pages must be mapped.
    ///
    /// # Errors
    ///
    /// Fails if a page is unmapped or memory is exhausted.
    pub fn host_write_bytes(&mut self, vaddr: u32, bytes: &[u8]) -> Result<(), KernelError> {
        let mut addr = vaddr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let in_page = (PAGE_SIZE - (addr % PAGE_SIZE)).min(rest.len() as u32) as usize;
            let (pfn, _) = self
                .proc
                .space_mut()
                .ensure_resident(addr, &mut self.frames)?;
            let paddr = (pfn << 12) | (addr & (PAGE_SIZE - 1));
            self.machine
                .mem_mut()
                .write_bytes(paddr, &rest[..in_page])
                .map_err(|_| KernelError::KernelFault("physical write out of range".into()))?;
            addr += in_page as u32;
            rest = &rest[in_page..];
        }
        Ok(())
    }

    /// Fills `out` from the address space at `vaddr` with kernel rights,
    /// paging in any mapped page that is not resident.
    ///
    /// # Errors
    ///
    /// Fails if a page of the span is unmapped or memory is exhausted; the
    /// pages before it may already have been paged in.
    pub fn host_read_into(&mut self, vaddr: u32, out: &mut [u8]) -> Result<(), KernelError> {
        let mut addr = vaddr;
        let mut rest = out;
        while !rest.is_empty() {
            let in_page = ((PAGE_SIZE - (addr % PAGE_SIZE)) as usize).min(rest.len());
            let (pfn, _) = self
                .proc
                .space_mut()
                .ensure_resident(addr, &mut self.frames)?;
            let paddr = (pfn << 12) | (addr & (PAGE_SIZE - 1));
            let (chunk, tail) = rest.split_at_mut(in_page);
            self.machine
                .mem()
                .read_into(paddr, chunk)
                .map_err(|_| KernelError::KernelFault("physical read out of range".into()))?;
            addr += in_page as u32;
            rest = tail;
        }
        Ok(())
    }

    // --- protection services ----------------------------------------------

    /// Full-weight `mprotect`: charges the Ultrix syscall wrapper plus
    /// per-page work, changes the page table, and shoots down stale TLB
    /// entries.
    ///
    /// # Errors
    ///
    /// Propagates mapping errors.
    pub fn sys_mprotect(&mut self, vaddr: u32, len: u32, prot: Prot) -> Result<(), KernelError> {
        let touched = self.proc.space_mut().protect_region(vaddr, len, prot)?;
        let cost =
            costs::ULTRIX_SYSCALL_WRAPPER + costs::ULTRIX_MPROTECT_PER_PAGE * touched.len() as u64;
        self.machine.charge_cycles(cost);
        let asid = self.proc.space().asid();
        for page in touched {
            self.machine.tlb_mut().invalidate_page(page, asid);
        }
        self.proc.stats.syscalls += 1;
        Ok(())
    }

    /// The paper's lean protection-change call (Section 3.2.3): same effect
    /// as [`Kernel::sys_mprotect`] at a fraction of the cost.
    ///
    /// # Errors
    ///
    /// Propagates mapping errors.
    pub fn sys_uexc_protect(
        &mut self,
        vaddr: u32,
        len: u32,
        prot: Prot,
    ) -> Result<(), KernelError> {
        let touched = self.proc.space_mut().protect_region(vaddr, len, prot)?;
        self.machine
            .charge_cycles(costs::FAST_PROTECT_SYSCALL + 2 * touched.len() as u64);
        let asid = self.proc.space().asid();
        for page in touched {
            self.machine.tlb_mut().invalidate_page(page, asid);
        }
        self.proc.stats.syscalls += 1;
        Ok(())
    }

    /// Subpage protection (Section 3.2.4): (un)protects 1 KB logical pages,
    /// adjusting hardware page protection accordingly.
    ///
    /// # Errors
    ///
    /// Fails on misaligned ranges or unmapped pages.
    pub fn sys_subpage_protect(
        &mut self,
        vaddr: u32,
        len: u32,
        protected: bool,
    ) -> Result<(), KernelError> {
        let touched = self
            .proc
            .subpage
            .protect(vaddr, len, protected)
            .map_err(|m| KernelError::Map(MapError::Unaligned).tap_msg(m))?;
        self.machine
            .charge_cycles(costs::FAST_PROTECT_SYSCALL + 2 * touched.len() as u64);
        let asid = self.proc.space().asid();
        for page in touched {
            let prot = if self.proc.subpage.manages(page) {
                Prot::Read
            } else {
                Prot::ReadWrite
            };
            self.proc
                .space_mut()
                .protect_region(page, PAGE_SIZE, prot)?;
            self.machine.tlb_mut().invalidate_page(page, asid);
        }
        self.proc.stats.syscalls += 1;
        Ok(())
    }

    /// Grants or revokes the user-modifiable TLB protection bit
    /// (Section 2.2) on a range.
    ///
    /// # Errors
    ///
    /// Fails on unmapped pages.
    pub fn sys_tlb_grant(
        &mut self,
        vaddr: u32,
        len: u32,
        allowed: bool,
    ) -> Result<(), KernelError> {
        let touched = self
            .proc
            .space_mut()
            .set_user_modifiable(vaddr, len, allowed)?;
        self.machine.charge_cycles(costs::FAST_PROTECT_SYSCALL);
        let asid = self.proc.space().asid();
        for page in touched {
            self.machine.tlb_mut().invalidate_page(page, asid);
        }
        self.proc.stats.syscalls += 1;
        Ok(())
    }

    /// Toggles eager amplification (Section 3.2.3).
    pub fn set_eager_amplification(&mut self, on: bool) {
        self.proc.fast.eager_amplification = on;
    }

    // --- fault injection ---------------------------------------------------

    /// Queues a delivery-path perturbation; the next fast-path delivery
    /// consumes it ([`InjectAction`] says where each one bites).
    pub fn inject(&mut self, action: InjectAction) {
        self.pending_injections.push(action);
    }

    /// Diagnostic from the most recent degraded delivery, if any.
    pub fn last_diagnostic(&self) -> Option<&str> {
        self.last_diagnostic.as_deref()
    }

    /// Evicts the pinned communication page *right now* (page-table
    /// residency, pin bit, and TLB entry all dropped) — for scenarios where
    /// the perturbation must land while the guest runs without host entry,
    /// e.g. between a breakpoint delivery and the handler's comm-page load.
    ///
    /// The old frame is deliberately leaked, not freed: a stale KSEG0 alias
    /// may still point at it, and the repair path copies the frame contents
    /// back when it re-establishes residency.
    ///
    /// # Errors
    ///
    /// [`KernelError::Map`] when the registered comm page is not mapped.
    pub fn inject_evict_comm_page(&mut self) -> Result<(), KernelError> {
        let comm = self.proc.fast.comm_vaddr;
        if comm == 0 {
            return Ok(());
        }
        self.proc.space_mut().set_pinned(comm, PAGE_SIZE, false)?;
        if let Some(pte) = self.proc.space_mut().pte_mut(comm) {
            pte.pfn = None;
        }
        let asid = self.proc.space().asid();
        self.machine.tlb_mut().invalidate_page(comm, asid);
        Ok(())
    }

    /// Whether the fast path's pinned-comm-page invariant actually holds:
    /// the page is mapped, resident, pinned, and the published KSEG0 alias
    /// matches its frame. Host-level registrations (no comm page) are
    /// vacuously intact. Pure check — charges no simulated cycles, so
    /// unperturbed runs stay bit-exact.
    fn fast_path_intact(&self) -> bool {
        let comm = self.proc.fast.comm_vaddr;
        if comm == 0 {
            return true;
        }
        let Some(pte) = self.proc.space().pte(comm) else {
            return false;
        };
        if !pte.pinned {
            return false;
        }
        match pte.pfn {
            Some(pfn) => self.proc.fast.comm_kseg0 == 0x8000_0000 | (pfn << 12),
            None => false,
        }
    }

    /// Re-establishes the comm page after a pinning violation: makes it
    /// resident again, copies the frame contents from the stale alias frame
    /// (guest-saved state must survive the eviction), re-pins, and
    /// republishes the KSEG0 alias. Returns `false` — with fast delivery
    /// disabled as the specified permanent degradation — if no frame is
    /// available; fails with [`KernelError::CommPageLost`] if the frame
    /// copy or the re-pin does.
    fn comm_page_repair(&mut self) -> Result<bool, KernelError> {
        let comm = self.proc.fast.comm_vaddr;
        let stale = kseg_to_phys(self.proc.fast.comm_kseg0);
        match self
            .proc
            .space_mut()
            .ensure_resident(comm, &mut self.frames)
        {
            Ok((pfn, paged_in)) => {
                if paged_in {
                    self.machine.charge_cycles(costs::PAGE_IN);
                }
                let fresh = pfn << 12;
                let lost = || KernelError::CommPageLost { comm_vaddr: comm };
                if let Some(src) = stale {
                    if src != fresh {
                        let mut bytes = [0; PAGE_SIZE as usize];
                        let mem = self.machine.mem_mut();
                        mem.read_into(src, &mut bytes)
                            .and_then(|()| mem.write_bytes(fresh, &bytes))
                            .map_err(|_| lost())?;
                    }
                }
                self.proc
                    .space_mut()
                    .set_pinned(comm, PAGE_SIZE, true)
                    .map_err(|_| lost())?;
                self.proc.fast.comm_kseg0 = 0x8000_0000 | fresh;
                self.sync_uarea()?;
                Ok(true)
            }
            Err(_) => {
                self.proc.fast.enabled_mask = 0;
                self.sync_uarea()?;
                Ok(false)
            }
        }
    }

    /// Applies queued pre-delivery injections (those that must land before
    /// the kernel inspects fast-path state). Post-delivery ones stay queued.
    fn apply_pre_injections(&mut self) -> Result<(), KernelError> {
        let queued = self.pending_injections.len();
        self.pending_injections
            .retain(|a| !matches!(a, InjectAction::EvictCommPage));
        for _ in self.pending_injections.len()..queued {
            self.inject_evict_comm_page()?;
        }
        Ok(())
    }

    /// Applies queued post-save injections — after the guest save phase
    /// wrote the communication frame, before the resume into the user
    /// handler. This is the window the harness perturbs: state is saved,
    /// the handler has not yet run.
    ///
    /// # Errors
    ///
    /// [`KernelError::Delivery`] when a corrupted frame word lies past
    /// physical memory, and the errors of
    /// [`Kernel::inject_evict_comm_page`].
    fn apply_post_injections(&mut self, epc: u32) -> Result<(), KernelError> {
        for action in std::mem::take(&mut self.pending_injections) {
            match action {
                InjectAction::CorruptCommWord {
                    code,
                    offset,
                    value,
                } => {
                    let base = self.proc.fast.comm_kseg0;
                    let Some(phys) = kseg_to_phys(base) else {
                        continue;
                    };
                    let addr = phys + code.code() * layout::COMM_FRAME_SIZE + offset;
                    self.machine.mem_mut().write_u32(addr, value).map_err(|e| {
                        KernelError::Delivery {
                            reason: format!("injected comm-frame write: {e}"),
                            epc,
                        }
                    })?;
                }
                InjectAction::EvictHandlerTlb => {
                    let page = self.proc.fast.handler & !(PAGE_SIZE - 1);
                    let asid = self.proc.space().asid();
                    self.machine.tlb_mut().invalidate_page(page, asid);
                }
                InjectAction::EvictCommPage => {
                    // Pre-delivery action that slipped through (queued after
                    // the pre pass ran); apply it now so it is not lost.
                    self.inject_evict_comm_page()?;
                }
            }
        }
        Ok(())
    }

    // --- guest execution ---------------------------------------------------

    /// Runs guest user code until exit, termination, or `max_steps`
    /// retired instructions.
    ///
    /// # Errors
    ///
    /// Fails on double faults or unknown host calls — simulator bugs, not
    /// guest-visible conditions.
    pub fn run_user(&mut self, max_steps: u64) -> Result<RunOutcome, KernelError> {
        if self.proc.exit_code().is_some() {
            return Err(KernelError::NotRunning);
        }
        let start = self.machine.instructions_retired();
        loop {
            let executed = self.machine.instructions_retired() - start;
            if executed >= max_steps {
                return Ok(RunOutcome::StepLimit);
            }
            match self.machine.run(max_steps - executed)? {
                StopReason::StepLimit => return Ok(RunOutcome::StepLimit),
                StopReason::HostCall(n) => {
                    let outcome = match n {
                        hcalls::UTLB_REFILL => self.handle_utlb()?,
                        hcalls::STANDARD_EXC => self.handle_standard()?,
                        hcalls::FAST_TLB_EXC => self.handle_fast_tlb()?,
                        other => return Err(KernelError::UnknownHcall(other)),
                    };
                    if let Some(out) = outcome {
                        if let RunOutcome::Exited(code) = out {
                            self.proc.exit(code);
                        }
                        return Ok(out);
                    }
                }
            }
        }
    }

    /// Resumes user execution at `pc` (pops the exception mode stack).
    fn resume_user_at(&mut self, pc: u32) {
        self.machine.cp0_mut().rfe();
        self.machine.set_pc(pc);
    }

    // --- hcall handlers -----------------------------------------------------

    /// UTLB refill: install a translation (servicing a page fault first if
    /// need be) and retry, or re-raise an unmapped or protection fault at
    /// the general vector.
    fn handle_utlb(&mut self) -> Result<Option<RunOutcome>, KernelError> {
        let bad = self.machine.cp0().bad_vaddr;
        let epc = self.machine.cp0().epc;
        let code = self.machine.cp0().exc_code().unwrap_or(ExcCode::TlbLoad);
        self.machine.charge_cycles(costs::TLB_REFILL);

        match self.proc.space().classify(bad, false) {
            // Readable (possibly write-protected): a store to a
            // write-protected page will raise TlbMod at the general vector
            // on the retry, as on real hardware.
            Ok(_) => {}
            Err(FaultKind::NotResident)
                if bad & !(PAGE_SIZE - 1) == self.proc.fast.comm_vaddr
                    && self.proc.fast.comm_kseg0 != 0
                    && !self.fast_path_intact() =>
            {
                // The pinned comm page was evicted out from under the fast
                // path (pinning violation). Degrade gracefully: restore the
                // page — contents included — through the slow refill path
                // and resume. Extra cycles, identical architectural state.
                let class = self.fault_class(code, Some(bad));
                self.proc.stats.degraded_deliveries += 1;
                self.metrics.record_degraded(self.trace_path, class);
                self.last_diagnostic = Some(format!(
                    "pinned comm page {bad:#010x} missed in TLB at EPC {epc:#010x}; \
                     repaired via slow refill path"
                ));
                self.proc.stats.utlb_repairs += 1;
                if !self.comm_page_repair()? {
                    // Out of frames: fast delivery is already disabled;
                    // kill with a diagnostic rather than loop on the miss.
                    self.last_diagnostic = Some(format!(
                        "pinned comm page {bad:#010x} lost and unrepairable; killing process"
                    ));
                    return Ok(Some(RunOutcome::Terminated(Signal::Segv)));
                }
                self.proc.stats.comm_page_repairs += 1;
                self.proc.stats.page_faults += 1;
            }
            Err(FaultKind::NotResident) => {
                self.machine.charge_cycles(costs::PAGE_IN);
                self.proc
                    .space_mut()
                    .ensure_resident(bad, &mut self.frames)
                    .map_err(KernelError::Map)?;
                self.proc.stats.page_faults += 1;
                self.metrics
                    .record_page_fault(self.trace_path, FaultClass::PageFault, bad);
            }
            Err(_) => {
                // Not mapped, or a protection fault: pop the refill's mode
                // stack and re-raise at the general vector, so the guest
                // phases route (and save) it like any other fault.
                let bd = self.machine.cp0().cause_bd();
                let pc = if bd { epc.wrapping_add(4) } else { epc };
                self.machine.cp0_mut().rfe();
                self.machine.raise_to_kernel(code, pc, Some(bad), bd);
                return Ok(None);
            }
        }
        self.install_refill_entry(bad);
        self.resume_user_at(epc);
        Ok(None)
    }

    /// Standard path: system calls and Ultrix-style signal delivery.
    fn handle_standard(&mut self) -> Result<Option<RunOutcome>, KernelError> {
        let cp0 = self.machine.cp0();
        let code = cp0
            .exc_code()
            .ok_or_else(|| KernelError::KernelFault("undecodable cause".into()))?;
        let from_user = cp0.status & status::KUP != 0;
        if !from_user {
            return Err(KernelError::KernelFault(format!(
                "{} at EPC {:#010x} in kernel mode",
                code, cp0.epc
            )));
        }
        match code {
            ExcCode::Syscall => self.dispatch_syscall(),
            ExcCode::Interrupt => {
                // Asynchronous events are out of scope; resume.
                let epc = self.machine.cp0().epc;
                self.resume_user_at(epc);
                Ok(None)
            }
            _ => {
                let bad = code.has_bad_vaddr().then(|| self.machine.cp0().bad_vaddr);
                self.deliver_fault(code, bad)
            }
        }
    }

    /// Fast path, TLB-type exception: the guest phases already ran and
    /// wrote the communication frame; the kernel now consults page tables
    /// (Section 3.2.2), applies subpage emulation or eager amplification,
    /// and completes the user-level delivery.
    fn handle_fast_tlb(&mut self) -> Result<Option<RunOutcome>, KernelError> {
        let code = self.machine.cp0().exc_code().unwrap_or(ExcCode::TlbMod);
        let bad = self.machine.cp0().bad_vaddr;
        self.deliver_fault(code, Some(bad))
    }

    // --- delivery ------------------------------------------------------------

    /// Routes a synchronous exception to the fast user path, the Unix
    /// signal path, or termination. Every caller is a guest phase's hcall,
    /// so on the fast path the guest save phase has already written the
    /// communication frame; the kernel never writes it.
    fn deliver_fault(
        &mut self,
        code: ExcCode,
        bad: Option<u32>,
    ) -> Result<Option<RunOutcome>, KernelError> {
        let epc = self.machine.cp0().epc;
        let bd = self.machine.cp0().cause_bd();
        let class = self.fault_class(code, bad);
        let badv = bad.unwrap_or(0);

        'fast: {
            if !(self.proc.fast.enabled_for(code) && self.proc.fast.handler != 0) {
                break 'fast;
            }
            self.apply_pre_injections()?;
            if !self.fast_path_intact() {
                // Pinning violation: the comm page the guest save phase just
                // wrote through (or is about to) is gone. Repair it, count
                // the delivery as degraded, and fall through to the Unix
                // signal path — the specified degradation; never wedge.
                self.proc.stats.degraded_deliveries += 1;
                self.metrics.record_degraded(self.trace_path, class);
                self.last_diagnostic = Some(format!(
                    "comm page {:#010x} lost before {code} delivery at EPC {epc:#010x}; \
                     falling back to Unix signals",
                    self.proc.fast.comm_vaddr
                ));
                if self.comm_page_repair()? {
                    self.proc.stats.comm_page_repairs += 1;
                }
                break 'fast;
            }
            let path = self.trace_path;
            let t_raised = self.machine.cycles();
            self.trace_emit(EventKind::FaultRaised, path, class, code, badv, epc);
            // TLB-type work: page-table checks, subpage engine, eager
            // amplification.
            if code.is_tlb() {
                self.machine.charge_cycles(costs::FAST_TLBFAULT_KERNEL);
                if let Some(bad) = bad {
                    if self.proc.subpage.manages(bad) {
                        self.machine.charge_cycles(costs::SUBPAGE_LOOKUP);
                        if !self.proc.subpage.is_protected(bad) {
                            // Unprotected logical subpage: emulate and resume;
                            // the program never sees the fault.
                            self.trace_emit(EventKind::KernelEntered, path, class, code, badv, epc);
                            self.machine.charge_cycles(costs::SUBPAGE_EMULATE);
                            match self.emulate_faulting_access(bad, epc, bd) {
                                Ok(()) => self.proc.stats.subpage_emulations += 1,
                                Err(e @ KernelError::Delivery { .. }) => {
                                    // Unemulatable shape (e.g. unpredictable
                                    // link-register use): degrade to signal
                                    // delivery with a diagnostic.
                                    self.proc.stats.degraded_deliveries += 1;
                                    self.metrics.record_degraded(path, class);
                                    self.last_diagnostic = Some(e.to_string());
                                    break 'fast;
                                }
                                Err(e) => return Err(e),
                            }
                            self.metrics.record_page_fault(path, class, bad);
                            self.trace_emit(EventKind::Resumed, path, class, code, badv, epc);
                            return Ok(None);
                        }
                        // Protected subpage: amplify the hardware page and
                        // deliver (Section 3.2.4).
                        self.amplify(bad);
                    } else if self.proc.fast.eager_amplification
                        && self.proc.space().pte(bad).is_some()
                    {
                        self.amplify(bad);
                        self.proc.stats.eager_amplifications += 1;
                    }
                    // Make sure the page is resident if it is a true page
                    // fault surfacing here (legal access, not resident).
                    if self.proc.space().classify(bad, false) == Err(FaultKind::NotResident) {
                        self.trace_emit(EventKind::KernelEntered, path, class, code, badv, epc);
                        self.machine.charge_cycles(costs::PAGE_IN);
                        self.proc
                            .space_mut()
                            .ensure_resident(bad, &mut self.frames)?;
                        self.proc.stats.page_faults += 1;
                        self.metrics
                            .record_page_fault(path, FaultClass::PageFault, bad);
                        self.install_refill_entry(bad);
                        self.resume_user_at(epc);
                        self.trace_emit(EventKind::Resumed, path, class, code, badv, epc);
                        return Ok(None);
                    }
                }
            }
            self.trace_emit(EventKind::KernelEntered, path, class, code, badv, epc);
            self.trace_emit(EventKind::StateSaved, path, class, code, badv, epc);
            // The guest saved the frame, the handler has not yet run: the
            // injection window for comm-page corruption and TLB eviction.
            self.apply_post_injections(epc)?;
            self.proc.stats.fast_delivered += 1;
            let handler = self.proc.fast.handler;
            self.resume_user_at(handler);
            self.trace_emit(EventKind::HandlerEntered, path, class, code, badv, handler);
            self.metrics
                .record_deliver(path, class, self.machine.cycles() - t_raised);
            if let Some(bad) = bad {
                self.metrics.record_page_fault(path, class, bad);
            }
            return Ok(None);
        }

        let path = TracePath::UnixSignals;
        let t_raised = self.machine.cycles();
        self.trace_emit(EventKind::FaultRaised, path, class, code, badv, epc);

        // Ultrix-compatible unaligned fixup (before the signal machinery).
        if self.fixup_unaligned && matches!(code, ExcCode::AddrErrLoad | ExcCode::AddrErrStore) {
            if let Some(bad) = bad {
                if bad < 0x8000_0000 && self.emulate_faulting_access(bad, epc, bd).is_ok() {
                    // The fixup costs a full kernel entry plus the emulation
                    // work: still cheaper than a signal, but far from free.
                    self.machine
                        .charge_cycles(costs::SUBPAGE_EMULATE + costs::SUBPAGE_EMULATE / 2);
                    self.metrics.record_page_fault(path, class, bad);
                    self.trace_emit(EventKind::Resumed, path, class, code, badv, epc);
                    return Ok(None);
                }
            }
        }

        // Unix signal path.
        let Some(sig) = Signal::from_exc(code) else {
            return Err(KernelError::KernelFault(format!("undeliverable {code}")));
        };
        self.machine
            .charge_cycles(costs::ULTRIX_EXC_SAVE + costs::ULTRIX_POST);
        if code.is_tlb() {
            self.machine.charge_cycles(costs::ULTRIX_VM_FAULT_WORK);
        }
        self.trace_emit(EventKind::KernelEntered, path, class, code, badv, epc);
        self.proc.signals.post(sig);
        let Some(sig) = self.proc.signals.recognize() else {
            // Unreachable by construction (we just posted), but injection
            // runs must never turn a broken invariant into a host panic.
            return Err(KernelError::Delivery {
                reason: format!("posted {sig:?} but recognize() found nothing pending"),
                epc,
            });
        };
        let handler = match self.proc.signals.disposition(sig) {
            signals::Disposition::Handler(h) => h,
            signals::Disposition::Default => {
                return Ok(Some(RunOutcome::Terminated(sig)));
            }
            signals::Disposition::Ignore => {
                // Resume at the faulting instruction; synchronous faults
                // will refault — exactly the looping the paper discusses.
                self.resume_user_at(epc);
                self.trace_emit(EventKind::Resumed, path, class, code, badv, epc);
                return Ok(None);
            }
        };
        self.machine.charge_cycles(costs::ULTRIX_DELIVER);

        // Build the sigcontext on the user stack.
        let sp = self.machine.cpu().reg(Reg::SP);
        let sc = (sp - SIGCONTEXT_BYTES) & !7;
        // The sigcontext page must be resident and writable.
        for page in [
            sc & !(PAGE_SIZE - 1),
            (sc + SIGCONTEXT_BYTES) & !(PAGE_SIZE - 1),
        ] {
            if self.proc.space().classify(page, true).is_err() {
                match self
                    .proc
                    .space_mut()
                    .ensure_resident(page, &mut self.frames)
                {
                    Ok(_) => {}
                    Err(_) => return Ok(Some(RunOutcome::Terminated(Signal::Segv))),
                }
            }
            self.install_refill_entry(page);
        }
        // Cause and BadVAddr as they stand, as the fast path's save phase
        // copies them: a `break` leaves the last fault's address there.
        let cp0 = self.machine.cp0();
        let (cause, bad_vaddr) = (cp0.cause, cp0.bad_vaddr);
        if signals::write_sigcontext(&mut self.machine, sc, epc, cause, bad_vaddr).is_err() {
            return Ok(Some(RunOutcome::Terminated(Signal::Segv)));
        }
        self.trace_emit(EventKind::StateSaved, path, class, code, badv, epc);

        // Redirect the exception return into the trampoline.
        let cpu = self.machine.cpu_mut();
        cpu.set_reg(Reg::A0, sig as u32);
        cpu.set_reg(Reg::A1, code.code());
        cpu.set_reg(Reg::A2, sc);
        cpu.set_reg(Reg::T9, handler);
        cpu.set_reg(Reg::SP, sc - 24);
        self.proc.stats.signals_delivered += 1;
        self.resume_user_at(layout::USER_RUNTIME_VADDR);
        self.trace_emit(EventKind::HandlerEntered, path, class, code, badv, handler);
        let now = self.machine.cycles();
        self.metrics.record_deliver(path, class, now - t_raised);
        if let Some(bad) = bad {
            self.metrics.record_page_fault(path, class, bad);
        }
        self.unix_pending.push((class, code, now));
        Ok(None)
    }

    /// Amplifies access on the page holding `vaddr` (Section 3.2.3): the
    /// page table gains write access and the stale TLB entry is removed so
    /// the retry refills with full rights.
    fn amplify(&mut self, vaddr: u32) {
        let page = vaddr & !(PAGE_SIZE - 1);
        if self
            .proc
            .space_mut()
            .protect_region(page, PAGE_SIZE, Prot::ReadWrite)
            .is_ok()
        {
            let asid = self.proc.space().asid();
            self.machine.tlb_mut().invalidate_page(page, asid);
        }
    }

    /// Installs a TLB entry for `vaddr` from the page table, round-robin
    /// over the non-wired slots.
    fn install_refill_entry(&mut self, vaddr: u32) {
        if let Some(entry) = self.proc.space().tlb_entry_for(vaddr) {
            let idx = 8 + (self.refill_rr % (TLB_ENTRIES - 8));
            self.refill_rr = self.refill_rr.wrapping_add(1);
            self.machine.tlb_mut().write(idx, entry);
            self.proc.stats.tlb_refills += 1;
        }
    }

    // --- delay-slot emulation ------------------------------------------------

    /// Emulates the faulting load or store at EPC with kernel rights, and
    /// the branch before it when it sits in a delay slot (`bd`), then
    /// resumes the program past it. The one emulator behind the subpage
    /// engine (Section 3.2.4) and the Ultrix unaligned fixup; each caller
    /// adds its own charges and counters around it.
    ///
    /// # Errors
    ///
    /// Fails before any register or memory changes if the instruction or
    /// its branch cannot be fetched or decoded, or the branch is an
    /// unpredictable shape ([`KernelError::Delivery`]); fails after the
    /// branch is resolved if the access is not a load or store or its pages
    /// are unmapped. The program is then not resumed.
    fn emulate_faulting_access(&mut self, bad: u32, epc: u32, bd: bool) -> Result<(), KernelError> {
        let access_pc = if bd { epc.wrapping_add(4) } else { epc };
        let word = self
            .machine
            .peek_u32(access_pc, false)
            .map_err(|e| KernelError::KernelFault(format!("cannot fetch for emulation: {e}")))?;
        let inst = decode(word)
            .map_err(|e| KernelError::KernelFault(format!("cannot decode for emulation: {e}")))?;

        // Resolve the branch BEFORE emulating the access: an emulated load
        // may clobber the branch's source register (`jr $t1` with
        // `lw $t1, ...` in the slot), and the branch architecturally read
        // the pre-load value when it executed. Doing this first also means
        // unemulatable shapes error out before any state is mutated.
        let next = if bd {
            self.machine.charge_cycles(costs::SUBPAGE_EMULATE_BRANCH);
            self.emulated_branch_target(epc)?
        } else {
            epc.wrapping_add(4)
        };

        // Byte-wise access through the page table (may straddle a page).
        self.emulate_access(inst, bad)?;

        // Continue past the access: sequentially, or at the branch target
        // resolved above when the access sat in a delay slot (the paper
        // calls this case out).
        self.resume_user_at(next);
        Ok(())
    }

    /// Performs the load or store `inst` at `vaddr` with kernel rights,
    /// byte-wise through the page table (so an unaligned access may straddle
    /// a page), with the width and extension [`sem::mem_access`] gives it.
    fn emulate_access(&mut self, inst: Instruction, vaddr: u32) -> Result<(), KernelError> {
        let a = sem::mem_access(inst).ok_or_else(|| {
            KernelError::KernelFault(format!("cannot emulate {inst}: not a load or store"))
        })?;
        let width = a.width as usize;
        if a.store {
            let v = self.machine.cpu().reg(a.rt);
            self.host_write_bytes(vaddr, &v.to_le_bytes()[..width])
        } else {
            let mut bytes = [0; 4];
            self.host_read_into(vaddr, &mut bytes[..width])?;
            let v = a.extend(u32::from_le_bytes(bytes));
            self.machine.cpu_mut().set_reg(a.rt, v);
            Ok(())
        }
    }

    /// Computes where the branch at `branch_pc` goes, given current
    /// register state. The branch executed before its delay slot faulted,
    /// so its *condition and target* registers still hold the values the
    /// branch read — EXCEPT when the branch itself wrote its own source
    /// (`jalr $rd, $rd`, or `bltzal`/`bgezal` testing `$ra`): the link
    /// write already clobbered the value, the shape is architecturally
    /// unpredictable, and re-evaluation would silently mis-resume. Those
    /// shapes get a typed [`KernelError::Delivery`] diagnostic instead.
    /// This must be called BEFORE the delay-slot access is emulated (a load
    /// in the slot may overwrite the branch's registers).
    fn emulated_branch_target(&mut self, branch_pc: u32) -> Result<u32, KernelError> {
        let word = self
            .machine
            .peek_u32(branch_pc, false)
            .map_err(|e| KernelError::KernelFault(format!("cannot fetch branch: {e}")))?;
        let inst = decode(word)
            .map_err(|e| KernelError::KernelFault(format!("cannot decode branch: {e}")))?;
        let cpu = self.machine.cpu();
        use Instruction::*;
        match inst {
            Jalr { rd, rs } if rd == rs => Err(KernelError::Delivery {
                reason: format!(
                    "jalr with rd == rs ({rs}) at {branch_pc:#010x}: link write clobbered \
                     the jump target; architecturally unpredictable"
                ),
                epc: branch_pc,
            }),
            Bltzal { rs, .. } | Bgezal { rs, .. } if rs == Reg::RA => Err(KernelError::Delivery {
                reason: format!(
                    "branch-and-link testing $ra at {branch_pc:#010x}: link write clobbered \
                     the condition; architecturally unpredictable"
                ),
                epc: branch_pc,
            }),
            J { target } | Jal { target } => Ok(sem::jump_target(branch_pc, target)),
            Jr { rs } | Jalr { rs, .. } => Ok(cpu.reg(rs)),
            _ => {
                let (rs, rt, imm) = sem::branch_operands(inst).ok_or_else(|| {
                    KernelError::KernelFault(format!("instruction {inst} is not a branch"))
                })?;
                Ok(
                    if sem::branch_taken(inst, cpu.reg(rs), cpu.reg(rt)) == Some(true) {
                        sem::branch_target(branch_pc, imm)
                    } else {
                        branch_pc.wrapping_add(8)
                    },
                )
            }
        }
    }

    // --- syscall dispatch -------------------------------------------------------

    fn dispatch_syscall(&mut self) -> Result<Option<RunOutcome>, KernelError> {
        self.proc.stats.syscalls += 1;
        let cpu = self.machine.cpu();
        let num = cpu.reg(Reg::V0);
        let (a0, a1, a2) = (cpu.reg(Reg::A0), cpu.reg(Reg::A1), cpu.reg(Reg::A2));
        let next = self.machine.cp0().epc.wrapping_add(4);

        let mut ret: i32 = 0;
        match num {
            nr::GETPID => {
                self.machine.charge_cycles(costs::ULTRIX_SYSCALL_WRAPPER);
                ret = self.proc.pid() as i32;
            }
            nr::EXIT => {
                return Ok(Some(RunOutcome::Exited(a0 as i32)));
            }
            nr::WRITE => {
                self.machine
                    .charge_cycles(costs::ULTRIX_SYSCALL_WRAPPER + u64::from(a1));
                // Page-sized chunks: a bad length faults on an unmapped
                // page instead of sizing a host buffer.
                let start = self.console.len();
                let mut chunk = [0; PAGE_SIZE as usize];
                let (mut addr, mut left) = (a0, a1 as usize);
                ret = a1 as i32;
                while left > 0 {
                    let n = left.min(chunk.len());
                    if self.host_read_into(addr, &mut chunk[..n]).is_err() {
                        self.console.truncate(start);
                        ret = -errno::EFAULT;
                        break;
                    }
                    self.console.extend_from_slice(&chunk[..n]);
                    addr = addr.wrapping_add(n as u32);
                    left -= n;
                }
            }
            nr::SIGACTION => {
                self.machine.charge_cycles(costs::ULTRIX_SYSCALL_WRAPPER);
                match Signal::from_number(a0) {
                    Some(sig) => {
                        // a1 = 0: SIG_DFL; a1 = 1: SIG_IGN; else handler.
                        let d = match a1 {
                            0 => signals::Disposition::Default,
                            1 => signals::Disposition::Ignore,
                            h => signals::Disposition::Handler(h),
                        };
                        self.proc.signals.set_disposition(sig, d);
                    }
                    None => ret = -errno::EINVAL,
                }
            }
            nr::SIGRETURN => {
                let t_ret = self.machine.cycles();
                if let Some(&(class, code, _)) = self.unix_pending.last() {
                    let epc = self.machine.cp0().epc;
                    self.trace_emit(
                        EventKind::HandlerReturned,
                        TracePath::UnixSignals,
                        class,
                        code,
                        0,
                        epc,
                    );
                }
                self.machine.charge_cycles(costs::ULTRIX_SIGRETURN);
                match signals::read_sigcontext(&mut self.machine, a0) {
                    Ok(pc) => {
                        self.resume_user_at(pc);
                        if let Some((class, code, t_entered)) = self.unix_pending.pop() {
                            let path = TracePath::UnixSignals;
                            self.metrics.record_handler(
                                path,
                                class,
                                t_ret.saturating_sub(t_entered),
                            );
                            self.trace_emit(EventKind::Resumed, path, class, code, 0, pc);
                            self.metrics
                                .record_return(path, class, self.machine.cycles() - t_ret);
                        }
                        return Ok(None);
                    }
                    Err(_) => return Ok(Some(RunOutcome::Terminated(Signal::Segv))),
                }
            }
            nr::MPROTECT => match prot_from_arg(a2) {
                Some(prot) => {
                    if self.sys_mprotect(a0, a1, prot).is_err() {
                        ret = -errno::EINVAL;
                    }
                    self.proc.stats.syscalls -= 1; // sys_mprotect counted it
                }
                None => ret = -errno::EINVAL,
            },
            nr::UEXC_ENABLE => {
                self.machine.charge_cycles(costs::ULTRIX_SYSCALL_WRAPPER);
                ret = self.sys_uexc_enable(a0, a1, a2)?;
            }
            nr::UEXC_DISABLE => {
                self.machine.charge_cycles(costs::ULTRIX_SYSCALL_WRAPPER);
                self.proc.fast.enabled_mask = 0;
                self.sync_uarea()?;
            }
            nr::UEXC_PROTECT => match prot_from_arg(a2) {
                Some(prot) => {
                    if self.sys_uexc_protect(a0, a1, prot).is_err() {
                        ret = -errno::EINVAL;
                    }
                    self.proc.stats.syscalls -= 1;
                }
                None => ret = -errno::EINVAL,
            },
            nr::UEXC_SETEAGER => {
                self.machine.charge_cycles(costs::FAST_PROTECT_SYSCALL);
                self.proc.fast.eager_amplification = a0 != 0;
            }
            nr::SUBPAGE_PROTECT => {
                if self.sys_subpage_protect(a0, a1, a2 != 0).is_err() {
                    ret = -errno::EINVAL;
                } else {
                    self.proc.stats.syscalls -= 1;
                }
            }
            nr::TLB_GRANT => {
                if self.sys_tlb_grant(a0, a1, a2 != 0).is_err() {
                    ret = -errno::EINVAL;
                } else {
                    self.proc.stats.syscalls -= 1;
                }
            }
            nr::SBRK => {
                self.machine.charge_cycles(costs::ULTRIX_SYSCALL_WRAPPER);
                let old = self.proc.brk;
                // A mapped region ends inside user space, so the new break
                // does not overflow.
                let mapped = a0.checked_add(PAGE_SIZE - 1).and_then(|n| {
                    let len = n & !(PAGE_SIZE - 1);
                    let space = self.proc.space_mut();
                    space.map_region(old, len, Prot::ReadWrite).ok()?;
                    Some(len)
                });
                ret = match mapped {
                    Some(len) => {
                        self.proc.brk = old + len;
                        old as i32
                    }
                    None => -errno::ENOMEM,
                };
            }
            _ => ret = -errno::ENOSYS,
        }
        self.machine.cpu_mut().set_reg(Reg::V0, ret as u32);
        self.resume_user_at(next);
        Ok(None)
    }

    /// The `uexc_enable` kernel half: validate the mask, map and pin the
    /// communication page, record the handler, and publish the state to the
    /// u-area the guest fast path reads.
    fn sys_uexc_enable(
        &mut self,
        mask: u32,
        handler: u32,
        comm_vaddr: u32,
    ) -> Result<i32, KernelError> {
        if mask & !crate::fastexc::FastExcState::allowed_mask() != 0 {
            return Ok(-errno::EINVAL);
        }
        if !comm_vaddr.is_multiple_of(PAGE_SIZE) || comm_vaddr >= layout::USER_SPACE_END {
            return Ok(-errno::EINVAL);
        }
        if self.proc.space().pte(comm_vaddr).is_none()
            && self
                .proc
                .space_mut()
                .map_region(comm_vaddr, PAGE_SIZE, Prot::ReadWrite)
                .is_err()
        {
            return Ok(-errno::EINVAL);
        }
        let Ok((pfn, _)) = self
            .proc
            .space_mut()
            .ensure_resident(comm_vaddr, &mut self.frames)
        else {
            return Ok(-errno::ENOMEM);
        };
        self.proc
            .space_mut()
            .set_pinned(comm_vaddr, PAGE_SIZE, true)?;
        self.proc.fast.enabled_mask = mask;
        self.proc.fast.handler = handler;
        self.proc.fast.comm_vaddr = comm_vaddr;
        self.proc.fast.comm_kseg0 = 0x8000_0000 | (pfn << 12);
        self.sync_uarea()?;
        Ok(0)
    }

    /// Publishes the current process's fast-exception state into the fixed
    /// KSEG0 u-area the guest handler reads.
    ///
    /// # Errors
    ///
    /// [`KernelError::KernelFault`] when the u-area lies past physical
    /// memory.
    pub fn sync_uarea(&mut self) -> Result<(), KernelError> {
        // UAREA_VADDR is a compile-time KSEG0 constant; translate inline
        // rather than unwrapping.
        let paddr = layout::UAREA_VADDR & 0x1fff_ffff;
        let f = &self.proc.fast;
        let words = [
            (layout::uarea::ENABLED_MASK, f.enabled_mask),
            (layout::uarea::HANDLER, f.handler),
            (layout::uarea::COMM_KSEG0, f.comm_kseg0),
            (layout::uarea::FLAGS, 0),
        ];
        let mem = self.machine.mem_mut();
        for (offset, value) in words {
            mem.write_u32(paddr + offset, value)
                .map_err(|e| KernelError::KernelFault(format!("u-area write: {e}")))?;
        }
        Ok(())
    }
}

/// Attaches context to an error message (internal convenience).
trait TapMsg {
    fn tap_msg(self, msg: String) -> Self;
}

impl TapMsg for KernelError {
    fn tap_msg(self, msg: String) -> KernelError {
        match self {
            KernelError::Map(_) => KernelError::KernelFault(msg),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boot() -> Kernel {
        Kernel::boot(KernelConfig::default()).expect("boot")
    }

    #[test]
    fn boots_and_loads_kernel_image() {
        let k = boot();
        assert!(k.kernel_symbol("fexc_decode").is_some());
        // The general vector holds the first decode instruction.
        let w = k.machine.mem().read_u32(0x80).unwrap();
        assert_ne!(w, 0, "vector must contain code");
    }

    #[test]
    fn host_read_pages_in_a_mapped_page_and_reads_zero() {
        let mut k = boot();
        let base = layout::USER_DATA_VADDR;
        k.map_user_region(base, PAGE_SIZE, Prot::ReadWrite).unwrap();
        assert_eq!(k.proc.space().pte(base).unwrap().pfn, None);
        let mut out = [0xa5; 16];
        k.host_read_into(base + 8, &mut out).unwrap();
        assert_eq!(out, [0; 16]);
        assert!(k.proc.space().pte(base).unwrap().pfn.is_some(), "paged in");
    }

    #[test]
    fn host_read_of_a_span_with_an_unmapped_page_is_an_error() {
        let mut k = boot();
        let last_word = layout::USER_DATA_VADDR + PAGE_SIZE - 4;
        k.map_user_region(layout::USER_DATA_VADDR, PAGE_SIZE, Prot::ReadWrite)
            .unwrap();
        k.host_write_bytes(last_word, &[1, 2, 3, 4]).unwrap();
        let mut out = [0; 8];
        assert!(k.host_read_into(last_word, &mut out).is_err());
        let mut word = [0; 4];
        k.host_read_into(last_word, &mut word).unwrap();
        assert_eq!(word, [1, 2, 3, 4], "the mapped page alone reads back");
    }

    #[test]
    fn runs_a_trivial_program_to_exit() {
        let mut k = boot();
        let prog = k
            .load_user_program(
                r#"
                .org 0x00400000
                main:
                    li $a0, 7
                    li $v0, 2      # exit
                    syscall
                    nop
            "#,
            )
            .unwrap();
        let sp = k.setup_stack(4).unwrap();
        k.exec(prog.entry(), sp);
        let out = k.run_user(10_000).unwrap();
        assert_eq!(out, RunOutcome::Exited(7));
    }

    #[test]
    fn getpid_returns_pid_and_charges_wrapper() {
        let mut k = boot();
        let prog = k
            .load_user_program(
                r#"
                .org 0x00400000
                main:
                    li $v0, 1
                    syscall
                    move $a0, $v0
                    li $v0, 2
                    syscall
                    nop
            "#,
            )
            .unwrap();
        let sp = k.setup_stack(4).unwrap();
        k.exec(prog.entry(), sp);
        let before = k.cycles();
        let out = k.run_user(10_000).unwrap();
        assert_eq!(out, RunOutcome::Exited(1), "pid is 1");
        assert!(k.cycles() - before >= costs::ULTRIX_SYSCALL_WRAPPER);
    }

    #[test]
    fn console_write_syscall() {
        let mut k = boot();
        let prog = k
            .load_user_program(
                r#"
                .org 0x00400000
                main:
                    la $a0, msg
                    li $a1, 5
                    li $v0, 3      # write
                    syscall
                    li $v0, 2
                    syscall
                    nop
                msg: .asciiz "hello"
            "#,
            )
            .unwrap();
        let sp = k.setup_stack(4).unwrap();
        k.exec(prog.entry(), sp);
        k.run_user(10_000).unwrap();
        assert_eq!(k.console(), b"hello");
    }

    #[test]
    fn unhandled_fault_terminates() {
        let mut k = boot();
        let prog = k
            .load_user_program(
                r#"
                .org 0x00400000
                main:
                    lw $t0, 2($zero)   # unaligned -> SIGBUS, no handler
                    nop
            "#,
            )
            .unwrap();
        let sp = k.setup_stack(4).unwrap();
        k.exec(prog.entry(), sp);
        let out = k.run_user(10_000).unwrap();
        assert_eq!(out, RunOutcome::Terminated(Signal::Bus));
    }

    #[test]
    fn unix_signal_handler_runs_and_returns() {
        let mut k = boot();
        // Handler advances the saved PC past the faulting instruction
        // (sigcontext PC is at offset 34*4 = 136).
        let prog = k
            .load_user_program(
                r#"
                .org 0x00400000
                main:
                    la  $a1, handler
                    li  $a0, 10        # SIGBUS
                    li  $v0, 4         # sigaction
                    syscall
                    lw  $t0, 2($zero)  # unaligned -> SIGBUS
                    li  $s1, 99        # must run after handler returns
                    li  $v0, 2
                    move $a0, $s1
                    syscall
                    nop
                handler:
                    lw  $t1, 136($a2)  # saved pc
                    addiu $t1, $t1, 4  # skip the faulting lw
                    sw  $t1, 136($a2)
                    jr  $ra
                    nop
            "#,
            )
            .unwrap();
        let sp = k.setup_stack(4).unwrap();
        k.exec(prog.entry(), sp);
        let out = k.run_user(100_000).unwrap();
        assert_eq!(out, RunOutcome::Exited(99));
        assert_eq!(k.process().stats.signals_delivered, 1);
    }

    #[test]
    fn fast_path_delivers_breakpoint_without_host() {
        let mut k = boot();
        let mask = 1 << ExcCode::Breakpoint.code();
        let prog = k
            .load_user_program(&format!(
                r#"
                .org 0x00400000
                main:
                    li  $a0, {mask}
                    la  $a1, fast_handler
                    li  $a2, 0x7ffe0000  # comm page
                    li  $v0, 7           # uexc_enable
                    syscall
                    break 0
                    li  $s1, 55          # runs after handler jumps back
                    move $a0, $s1
                    li  $v0, 2
                    syscall
                    nop
                fast_handler:
                    # comm frame for breakpoint (code 9) at comm + 9*32
                    li  $t0, 0x7ffe0000
                    lw  $t1, 288($t0)    # saved EPC
                    addiu $t1, $t1, 4    # skip the break
                    jr  $t1              # return directly -- no kernel
                    nop
            "#,
            ))
            .unwrap();
        let sp = k.setup_stack(4).unwrap();
        k.exec(prog.entry(), sp);
        let out = k.run_user(100_000).unwrap();
        assert_eq!(out, RunOutcome::Exited(55));
        // No signal machinery involved.
        assert_eq!(k.process().stats.signals_delivered, 0);
    }

    #[test]
    fn nested_signal_delivery_preserves_outer_context() {
        // Satellite: the recursive-exception window. A SIGBUS handler
        // itself takes an unaligned fault (second delivery while the first
        // is in flight). The kernel stacks sigcontexts on the user stack
        // and must stack its own in-flight bookkeeping the same way — the
        // inner delivery must not clobber the outer one's saved state.
        let mut k = boot();
        let prog = k
            .load_user_program(
                r#"
                .org 0x00400000
                main:
                    la  $a1, outer
                    li  $a0, 10        # SIGBUS
                    li  $v0, 4         # sigaction
                    syscall
                    lw  $t0, 2($zero)  # unaligned -> SIGBUS (outer)
                    la  $t2, mark      # register writes don't survive
                    lw  $a0, 0($t2)    # sigreturn; the mark lives in memory
                    li  $v0, 2
                    syscall
                    nop
                outer:
                    la  $t2, depth
                    lw  $t3, 0($t2)
                    bne $t3, $zero, inner_body
                    nop
                    # First (outer) activation: note the depth, then fault
                    # AGAIN inside the handler.
                    li  $t3, 1
                    sw  $t3, 0($t2)
                    lw  $t0, 6($zero)  # unaligned -> SIGBUS (inner, nested)
                    # after inner handler returns here:
                    lw  $t1, 136($a2)  # outer saved pc
                    addiu $t1, $t1, 4  # skip the original faulting lw
                    sw  $t1, 136($a2)
                    jr  $ra
                    nop
                inner_body:
                    la  $t2, mark      # mark in memory: inner handler ran
                    li  $t3, 42
                    sw  $t3, 0($t2)
                    lw  $t1, 136($a2)  # inner saved pc (inside outer handler)
                    addiu $t1, $t1, 4  # skip the nested faulting lw
                    sw  $t1, 136($a2)
                    jr  $ra
                    nop
                depth: .word 0
                mark:  .word 0
            "#,
            )
            .unwrap();
        let sp = k.setup_stack(8).unwrap();
        k.exec(prog.entry(), sp);
        let out = k.run_user(1_000_000).unwrap();
        assert_eq!(out, RunOutcome::Exited(42), "both activations completed");
        assert_eq!(k.process().stats.signals_delivered, 2);
    }

    /// Program whose fast path delivers a TlbMod (write-protect) fault;
    /// the handler skips the faulting store and execution exits 55.
    const TLBMOD_FAST_PROGRAM: &str = r#"
        .org 0x00400000
        main:
            li  $a0, 0x02            # 1 << TlbMod
            la  $a1, fast_handler
            li  $a2, 0x7ffe0000
            li  $v0, 7               # uexc_enable
            syscall
            li  $a0, 8192
            li  $v0, 13              # sbrk
            syscall
            move $s1, $v0
            sw  $zero, 0($s1)        # resident + writable
            move $a0, $s1
            li  $a1, 4096
            li  $a2, 1               # PROT_READ
            li  $v0, 9               # uexc_protect
            syscall
            sw  $s1, 0($s1)          # TlbMod -> fast delivery
            li  $a0, 55
            li  $v0, 2
            syscall
            nop
        fast_handler:
            li  $t0, 0x7ffe0000
            lw  $t1, 0x20($t0)       # TlbMod frame EPC
            addiu $t1, $t1, 4        # skip the store
            jr  $t1
            nop
    "#;

    #[test]
    fn evict_handler_tlb_injection_recovers_via_refill() {
        // Mid-delivery TLB eviction of the handler's page: the resume must
        // come back through the slow refill path and still reach the
        // handler — bit-exact recovery, extra refill cycles.
        let mut k = boot();
        let prog = k.load_user_program(TLBMOD_FAST_PROGRAM).unwrap();
        let sp = k.setup_stack(4).unwrap();
        k.exec(prog.entry(), sp);
        k.inject(InjectAction::EvictHandlerTlb);
        let out = k.run_user(1_000_000).unwrap();
        assert_eq!(out, RunOutcome::Exited(55));
        assert_eq!(k.process().stats.fast_delivered, 1);
        assert_eq!(k.process().stats.degraded_deliveries, 0, "bit-exact");
    }

    #[test]
    fn evicted_comm_page_degrades_to_unix_path_not_wedge() {
        // Pinning violation before a fast delivery: the kernel must detect
        // the lie, repair the page, count the degradation, and deliver via
        // Unix signals. With no signal handler the process dies with a
        // diagnostic — never a hang, never a host panic.
        let mut k = boot();
        let prog = k.load_user_program(TLBMOD_FAST_PROGRAM).unwrap();
        let sp = k.setup_stack(4).unwrap();
        k.exec(prog.entry(), sp);
        k.inject(InjectAction::EvictCommPage);
        let out = k.run_user(1_000_000).unwrap();
        assert_eq!(out, RunOutcome::Terminated(Signal::Segv));
        assert_eq!(k.process().stats.degraded_deliveries, 1);
        assert_eq!(k.process().stats.fast_delivered, 0);
        assert!(k.last_diagnostic().is_some());
    }

    #[test]
    fn comm_page_eviction_between_break_and_handler_read_recovers() {
        // The hardest pinning-violation window: a breakpoint is delivered
        // entirely by the guest vector (the host never runs), the comm
        // frame is written through the KSEG0 alias, and THEN the page is
        // evicted before the user handler's comm-page load. The load
        // misses, and the host refill path must notice the violated pin,
        // restore the frame CONTENTS from the stale alias, and resume —
        // bit-exact recovery through the slow path.
        let mut k = boot();
        let mask = 1 << ExcCode::Breakpoint.code();
        let prog = k
            .load_user_program(&format!(
                r#"
                .org 0x00400000
                main:
                    li  $a0, {mask}
                    la  $a1, fast_handler
                    li  $a2, 0x7ffe0000
                    li  $v0, 7           # uexc_enable
                    syscall
                    break 0
                    li  $a0, 55
                    li  $v0, 2
                    syscall
                    nop
                fast_handler:
                    li  $t0, 0x7ffe0000
                    lw  $t1, 288($t0)    # breakpoint frame EPC
                    addiu $t1, $t1, 4
                    jr  $t1
                    nop
            "#,
            ))
            .unwrap();
        let sp = k.setup_stack(4).unwrap();
        k.exec(prog.entry(), sp);
        // Step until the fast path is armed, then yank the comm page out
        // from under the guest mid-flight.
        let mut steps = 0;
        while k.process().fast.comm_kseg0 == 0 {
            assert_eq!(k.run_user(1).unwrap(), RunOutcome::StepLimit);
            steps += 1;
            assert!(steps < 10_000, "uexc_enable never armed");
        }
        k.inject_evict_comm_page().expect("comm page mapped");
        let out = k.run_user(1_000_000).unwrap();
        assert_eq!(out, RunOutcome::Exited(55), "recovered bit-exact");
        assert_eq!(k.process().stats.degraded_deliveries, 1);
        assert!(k
            .last_diagnostic()
            .expect("diagnostic recorded")
            .contains("repaired"));
    }

    #[test]
    fn sbrk_grows_heap() {
        let mut k = boot();
        let prog = k
            .load_user_program(
                r#"
                .org 0x00400000
                main:
                    li  $a0, 8192
                    li  $v0, 13        # sbrk
                    syscall
                    move $t0, $v0      # old break
                    li  $t1, 1234
                    sw  $t1, 0($t0)    # touch the new heap (page fault path)
                    lw  $a0, 0($t0)
                    li  $v0, 2
                    syscall
                    nop
            "#,
            )
            .unwrap();
        let sp = k.setup_stack(4).unwrap();
        k.exec(prog.entry(), sp);
        let out = k.run_user(100_000).unwrap();
        assert_eq!(out, RunOutcome::Exited(1234));
        assert!(k.process().stats.page_faults >= 1);
        assert!(k.process().stats.tlb_refills >= 1);
    }

    #[test]
    fn host_access_services_page_faults_silently() {
        let mut k = boot();
        k.map_user_region(0x1000_0000, 2 * PAGE_SIZE, Prot::ReadWrite)
            .unwrap();
        k.host_store_u32(0x1000_0010, 0xabcd).unwrap();
        assert_eq!(k.host_load_u32(0x1000_0010).unwrap(), 0xabcd);
        assert_eq!(k.process().stats.page_faults, 1);
    }

    #[test]
    fn host_access_reports_protection_faults() {
        let mut k = boot();
        k.map_user_region(0x1000_0000, PAGE_SIZE, Prot::Read)
            .unwrap();
        let err = k.host_store_u32(0x1000_0000, 1).unwrap_err();
        assert_eq!(err.kind, FaultKind::Protection);
        assert_eq!(err.code, ExcCode::TlbMod);
        assert!(err.write);
        // Reads still work.
        assert!(k.host_load_u32(0x1000_0000).is_ok());
        // Unmapped.
        let err = k.host_load_u32(0x2000_0000).unwrap_err();
        assert_eq!(err.kind, FaultKind::NotMapped);
        // Unaligned.
        let err = k.host_load_u32(0x1000_0002).unwrap_err();
        assert_eq!(err.code, ExcCode::AddrErrLoad);
    }

    #[test]
    fn host_access_reports_bus_errors() {
        let mut k = boot();
        // A resident page whose frame lies past physical memory.
        let past_end = (k.machine().mem().size() as u32) >> 12;
        let pte = crate::vm::Pte {
            pfn: Some(past_end),
            prot: Prot::ReadWrite,
            user_modifiable: false,
            pinned: false,
            dirty: false,
        };
        k.proc
            .space_mut()
            .restore_page(0x1000_0000 / PAGE_SIZE, pte);
        let bus = |write| HostFault::bus_error(0x1000_0008, write);
        assert_eq!(k.host_load_u32(0x1000_0008), Err(bus(false)));
        assert_eq!(k.host_store_u32(0x1000_0008, 7), Err(bus(true)));
        assert_eq!(bus(true).code, ExcCode::BusErrData);
    }

    #[test]
    fn mprotect_changes_future_classification() {
        let mut k = boot();
        k.map_user_region(0x1000_0000, PAGE_SIZE, Prot::ReadWrite)
            .unwrap();
        k.host_store_u32(0x1000_0000, 5).unwrap();
        k.sys_mprotect(0x1000_0000, PAGE_SIZE, Prot::Read).unwrap();
        assert!(k.host_store_u32(0x1000_0000, 6).is_err());
        k.sys_uexc_protect(0x1000_0000, PAGE_SIZE, Prot::ReadWrite)
            .unwrap();
        assert!(k.host_store_u32(0x1000_0000, 6).is_ok());
    }
}
