//! The machine: fetch/decode/execute with precise exceptions.
//!
//! [`Machine`] ties together the CPU register file, CP0, the TLB, and
//! physical memory. It implements:
//!
//! - the R3000 memory map (KUSEG mapped through the TLB; KSEG0/KSEG1
//!   unmapped kernel windows; KSEG2 mapped kernel space);
//! - branch delay slots, including the `Cause.BD` / EPC-at-the-branch
//!   behaviour that the paper's subpage emulation must deal with
//!   (Section 3.2.4);
//! - precise synchronous exceptions vectored to the kernel at the R3000
//!   addresses (`0x8000_0000` for user TLB refill, `0x8000_0080` general);
//! - the paper's **hardware user-level vectoring** (Section 2): when
//!   enabled, a synchronous exception in user mode whose kind is in the
//!   user exception mask is delivered by *exchanging PC with the UXT
//!   register* — no mode change, no kernel;
//! - cycle accounting per the [`crate::cycles`] model and optional
//!   per-region instruction attribution via [`crate::profile::Profiler`].
//!
//! The superblock engine ([`ExecEngine::Superblock`]) pays its bookkeeping
//! once per block, not once per instruction. On entry a block picks its
//! loop: with or without the trace/profiler hooks, over the ops that fit
//! in the step budget. The loop keeps the cycle count and the delay-slot
//! flag in locals. It writes them and the retired count back at its one
//! exit, before any fault is raised, so every counter reads what the
//! interpreter's would. Its loads and stores translate KUSEG addresses
//! through a small direct-mapped *data-translation cache*, keyed by
//! (virtual page, ASID) and tagged with [`Tlb::generation`], so a page
//! costs one TLB lookup until the TLB next changes. A line filled by a
//! load is not trusted for a store, which re-translates. [`Machine::step`]
//! executes through the same instruction body with the uncached
//! [`Machine::translate`], so the interpreter stays the uncached reference.

use std::error::Error;
use std::fmt;

use crate::asm::Program;
use crate::cp0::{status, Cp0, Cp0Reg};
use crate::cycles;
use crate::decode::decode;
use crate::exception::{ExcCode, Exception};
use crate::isa::{Instruction, Reg, TlbProtOp};
use crate::mem::Memory;
use crate::profile::Profiler;
use crate::sem;
use crate::tlb::{Tlb, TlbFault};

/// General exception vector (all exceptions except user-space TLB refills).
pub const GENERAL_VECTOR: u32 = 0x8000_0080;
/// User TLB refill vector.
pub const UTLB_VECTOR: u32 = 0x8000_0000;

/// Why [`Machine::run`] stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// A privileged `hcall` instruction executed; the host kernel services
    /// the request and may resume the machine. The PC has already advanced
    /// past the `hcall`.
    HostCall(u32),
    /// The step budget was exhausted.
    StepLimit,
}

/// A fatal simulation error (not an architectural exception).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MachineError {
    /// An image segment referred to an address outside KSEG0/KSEG1.
    UnmappedImageSegment(u32),
    /// An image segment fell outside physical memory.
    ImageOutOfRange(u32),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::UnmappedImageSegment(a) => {
                write!(f, "image segment at {a:#010x} is not in KSEG0/KSEG1")
            }
            MachineError::ImageOutOfRange(a) => {
                write!(f, "image segment at {a:#010x} exceeds physical memory")
            }
        }
    }
}

impl Error for MachineError {}

/// The CPU register file and program counters.
#[derive(Clone, Debug)]
pub struct Cpu {
    regs: [u32; 32],
    hi: u32,
    lo: u32,
    /// Address of the next instruction to execute.
    pub pc: u32,
    /// Address of the instruction after that (differs from `pc + 4` when a
    /// branch is pending — i.e., while executing a delay slot).
    pub next_pc: u32,
}

impl Cpu {
    fn new() -> Cpu {
        Cpu {
            regs: [0; 32],
            hi: 0,
            lo: 0,
            pc: 0,
            next_pc: 4,
        }
    }

    /// Reads a general-purpose register (`$zero` always reads 0).
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.number() as usize]
    }

    /// Writes a general-purpose register (writes to `$zero` are ignored).
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        if r != Reg::ZERO {
            self.regs[r.number() as usize] = v;
        }
    }

    /// The multiply/divide HI register.
    pub fn hi(&self) -> u32 {
        self.hi
    }

    /// Sets the multiply/divide HI register.
    pub fn set_hi(&mut self, v: u32) {
        self.hi = v;
    }

    /// The multiply/divide LO register.
    pub fn lo(&self) -> u32 {
        self.lo
    }

    /// Sets the multiply/divide LO register.
    pub fn set_lo(&mut self, v: u32) {
        self.lo = v;
    }

    /// Snapshot of all 32 registers.
    pub fn regs(&self) -> [u32; 32] {
        self.regs
    }

    /// Replaces all 32 registers (`$zero` is forced back to 0).
    pub fn set_regs(&mut self, regs: [u32; 32]) {
        self.regs = regs;
        self.regs[0] = 0;
    }
}

/// Classifies a memory access for exception reporting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    /// Instruction fetch.
    Fetch,
    /// Data load.
    Load,
    /// Data store.
    Store,
}

impl Access {
    fn addr_err(self) -> ExcCode {
        match self {
            Access::Store => ExcCode::AddrErrStore,
            _ => ExcCode::AddrErrLoad,
        }
    }

    fn tlb_err(self) -> ExcCode {
        match self {
            Access::Store => ExcCode::TlbStore,
            _ => ExcCode::TlbLoad,
        }
    }

    fn bus_err(self) -> ExcCode {
        match self {
            Access::Fetch => ExcCode::BusErrFetch,
            _ => ExcCode::BusErrData,
        }
    }
}

/// Which engine drives [`Machine::run`].
///
/// Both engines are architecturally identical — same register/CP0/TLB state,
/// same cycle and instruction counts, same trace events, same exception
/// delivery points. They differ only in host-side wall-clock cost (and in
/// the host-side cache counters they maintain). The superblock engine is
/// the default; the interpreter is the reference the parity tests and the
/// recorded baseline are checked against.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecEngine {
    /// The reference engine: one full translate–fetch–decode–dispatch
    /// round per instruction through [`Machine::step`], with no cache.
    Interpreter,
    /// The superblock engine (the default): straight-line runs (up to the
    /// next control transfer, delay slot included) are pre-decoded once
    /// into flat blocks with precomputed cycle costs, then replayed by a
    /// tight dispatch loop that re-enters the generic [`Machine::step`]
    /// path only on block exit, exception, TLB miss, or self-modified text.
    /// A TLB change does not discard a block: it is retagged once its start
    /// address re-translates to the same physical page. Loads and stores in
    /// blocks translate KUSEG pages through a data-translation cache tagged
    /// with the TLB generation.
    #[default]
    Superblock,
}

impl ExecEngine {
    /// Stable lower-case name (`"interpreter"` / `"superblock"`).
    pub fn as_str(self) -> &'static str {
        match self {
            ExecEngine::Interpreter => "interpreter",
            ExecEngine::Superblock => "superblock",
        }
    }

    /// Parses the name produced by [`ExecEngine::as_str`].
    pub fn parse(s: &str) -> Option<ExecEngine> {
        match s {
            "interpreter" => Some(ExecEngine::Interpreter),
            "superblock" => Some(ExecEngine::Superblock),
            _ => None,
        }
    }
}

impl fmt::Display for ExecEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-machine execution configuration, fixed at construction. The
/// default runs the superblock engine ([`ExecEngine::default`]).
///
/// The config is a plain value owned by the machine built from it, never a
/// process global that fleet worker threads could race on. Code that cannot
/// pass a config down to the machines it constructs internally (the
/// kernel, app workloads) inherits the calling thread's scoped default —
/// see [`with_machine_config`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MachineConfig {
    /// Execution engine for [`Machine::run`].
    pub engine: ExecEngine,
}

impl MachineConfig {
    /// Returns the config with the execution engine replaced.
    #[must_use]
    pub fn engine(mut self, engine: ExecEngine) -> MachineConfig {
        self.engine = engine;
        self
    }

    /// The config [`Machine::new`] uses: the calling thread's scoped
    /// override when one is active (see [`with_machine_config`]), else the
    /// defaults.
    pub fn inherited() -> MachineConfig {
        CONFIG_OVERRIDE.with(|c| c.get()).unwrap_or_default()
    }
}

thread_local! {
    static CONFIG_OVERRIDE: std::cell::Cell<Option<MachineConfig>> =
        const { std::cell::Cell::new(None) };
}

/// Runs `f` with `cfg` as the calling thread's machine-construction default:
/// every [`Machine::new`] on this thread inside `f` (however deeply nested —
/// kernel boot, app workloads) builds from `cfg`. Scopes nest and restore on
/// unwind, and the override is thread-local, so concurrent fleet tenants can
/// each select their own engine without racing — the fix for the old
/// process-global switches.
pub fn with_machine_config<R>(cfg: MachineConfig, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<MachineConfig>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CONFIG_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = CONFIG_OVERRIDE.with(|c| c.replace(Some(cfg)));
    let _restore = Restore(prev);
    f()
}

/// Longest straight-line run one superblock may hold. Runs end at the first
/// control transfer anyway, so 64 comfortably covers real basic blocks; the
/// cap only bounds pathological branch-free pages.
const SBLOCK_MAX_OPS: usize = 64;
/// Superblock cache sets (indexed by block start address).
const SBLOCK_SETS: usize = 256;
/// Blocks per superblock set. Way 0 holds the set's most recently entered
/// block, so a conflict-free run hits on its first probe; a second block
/// whose start address shares the set lives in way 1 instead of evicting
/// it (the kernel's return path and the user code it resumes, for one).
const SBLOCK_WAYS: usize = 2;
/// Lines of the data-translation cache, indexed by the low bits of the
/// virtual page number.
const DTLB_LINES: usize = 64;

/// One data-translation cache line: the physical frame of a KUSEG page
/// under one ASID, exact while the TLB's [`Tlb::generation`] is `tlb_gen`.
/// Only the superblock engine's loads and stores use it.
#[derive(Clone, Copy, Debug)]
struct DtlbLine {
    /// Virtual page number; [`DtlbLine::EMPTY`]'s `u32::MAX` matches no
    /// KUSEG page.
    vpn: u32,
    asid: u8,
    /// A store filled the line, so the page was writable at `tlb_gen`. A
    /// load-filled line serves loads only.
    writable: bool,
    tlb_gen: u64,
    /// Physical address of the page's frame.
    frame: u32,
}

impl DtlbLine {
    const EMPTY: DtlbLine = DtlbLine {
        vpn: u32::MAX,
        asid: 0,
        writable: false,
        tlb_gen: 0,
        frame: 0,
    };
}

/// One pre-decoded instruction inside a superblock.
#[derive(Clone, Copy)]
struct SbOp {
    /// The raw instruction word (trace events record it).
    word: u32,
    inst: Instruction,
    /// [`cycles::static_cost`] of `inst` (no op in a block is a privileged
    /// TLB op, so none can be refused at a lower charge).
    cost: u64,
    /// Control transfer — the op after it (if present) is its delay slot,
    /// and a block never extends past that slot.
    is_ct: bool,
    /// Store — after it retires the block re-checks its own text page's
    /// write version so in-place patches take effect on the next fetch.
    is_store: bool,
}

/// A cached straight-line run, tagged by everything that produced its ops:
///
/// - the *translation* — start address, processor mode, ASID and the TLB's
///   [`Tlb::generation`] counter (TLB-mapped text only; KSEG0/1
///   translations are fixed by the architecture);
/// - the *text* — physical page and the page's [`Memory::page_version`]
///   write counter.
///
/// One check at entry covers every op in the block. A stale
/// translation tag alone costs one re-translation of the start address,
/// after which the block is retagged if it still maps to `page_paddr`
/// (see `Machine::block_translation_current`). A store inside
/// the block that hits the block's own page aborts it mid-run (and
/// empties it), so self-modifying code observes patched text on the very
/// next fetch, exactly like the interpreter. A block with no ops is a
/// vacancy: it never validates, and the next build in its slot reuses it.
#[derive(Clone, Default)]
struct SuperBlock {
    start_pc: u32,
    user: bool,
    /// Translation went through the TLB (KUSEG/KSEG2) rather than the
    /// fixed KSEG0/KSEG1 windows.
    mapped: bool,
    asid: u8,
    tlb_gen: u64,
    page_paddr: u32,
    mem_version: u32,
    ops: Vec<SbOp>,
}

impl fmt::Debug for SuperBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SuperBlock")
            .field("start_pc", &self.start_pc)
            .field("user", &self.user)
            .field("mapped", &self.mapped)
            .field("asid", &self.asid)
            .field("tlb_gen", &self.tlb_gen)
            .field("page_paddr", &self.page_paddr)
            .field("mem_version", &self.mem_version)
            .field("ops", &self.ops.len())
            .finish()
    }
}

/// Superblock-cache slot of way 0 of the set for a block start address
/// (way 1 is the next slot). Folds high address bits in so that user text
/// and its KSEG0 kernel counterpart, which lie a multiple of the set count
/// apart, do not systematically alias.
fn sblock_set(pc: u32) -> usize {
    let x = pc >> 2;
    (((x ^ (x >> 8) ^ (x >> 17)) as usize) & (SBLOCK_SETS - 1)) * SBLOCK_WAYS
}

/// Whether an instruction must run through the generic [`Machine::step`]
/// path and therefore ends superblock construction *before* it.
///
/// These are the ops that can invalidate a block's entry-time tags mid-run:
/// CP0 writes (mode/ASID changes), TLB mutations (translation changes),
/// `rfe` (mode change), and `xpcu` (PC redirect with no delay slot).
/// `syscall`/`break`/`hcall` are safe inside blocks — they leave via the
/// fault/host-call arms, which exit the block.
fn ends_block(inst: Instruction) -> bool {
    use Instruction::*;
    matches!(
        inst,
        Mtc0 { .. } | Tlbr | Tlbwi | Tlbwr | Tlbp | Utlbp { .. } | Rfe | Xpcu
    )
}

/// The simulated machine.
#[derive(Clone, Debug)]
pub struct Machine {
    cpu: Cpu,
    cp0: Cp0,
    tlb: Tlb,
    mem: Memory,
    cycles: u64,
    instret: u64,
    exceptions_taken: u64,
    /// The previous executed instruction was a branch/jump, so the current
    /// one sits in its delay slot.
    prev_was_branch: bool,
    profiler: Option<Profiler>,
    trace: Option<crate::trace::Trace>,
    engine: ExecEngine,
    /// Superblock cache, [`SBLOCK_WAYS`] consecutive slots per set (no
    /// slots until the superblock engine is selected).
    sbcache: Vec<Option<Box<SuperBlock>>>,
    sb_hits: u64,
    sb_misses: u64,
    sb_invalidations: u64,
    /// Data-translation cache of the superblock engine's loads and stores.
    dtlb: [DtlbLine; DTLB_LINES],
}

impl Machine {
    /// Creates a machine with `phys_bytes` of physical memory, in kernel
    /// mode at PC 0, configured from [`MachineConfig::inherited`] (the
    /// calling thread's scoped config, else the process defaults).
    pub fn new(phys_bytes: usize) -> Machine {
        Machine::with_config(phys_bytes, MachineConfig::inherited())
    }

    /// Creates a machine with `phys_bytes` of physical memory, in kernel
    /// mode at PC 0, with an explicit per-machine configuration.
    ///
    /// ```
    /// use efex_mips::machine::{ExecEngine, Machine, MachineConfig};
    ///
    /// let cfg = MachineConfig::default().engine(ExecEngine::Superblock);
    /// let m = Machine::with_config(1 << 20, cfg);
    /// assert_eq!(m.engine(), ExecEngine::Superblock);
    /// assert_eq!(m.cycles(), 0);
    /// ```
    pub fn with_config(phys_bytes: usize, cfg: MachineConfig) -> Machine {
        Machine {
            cpu: Cpu::new(),
            cp0: Cp0::new(),
            tlb: Tlb::new(),
            mem: Memory::new(phys_bytes),
            cycles: 0,
            instret: 0,
            exceptions_taken: 0,
            prev_was_branch: false,
            profiler: None,
            trace: None,
            engine: cfg.engine,
            sbcache: match cfg.engine {
                ExecEngine::Superblock => (0..SBLOCK_SETS * SBLOCK_WAYS).map(|_| None).collect(),
                ExecEngine::Interpreter => Vec::new(),
            },
            sb_hits: 0,
            sb_misses: 0,
            sb_invalidations: 0,
            dtlb: [DtlbLine::EMPTY; DTLB_LINES],
        }
    }

    // --- accessors -------------------------------------------------------

    /// The CPU register file.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable CPU register file (host kernel services use this).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// The system coprocessor.
    pub fn cp0(&self) -> &Cp0 {
        &self.cp0
    }

    /// Mutable system coprocessor.
    pub fn cp0_mut(&mut self) -> &mut Cp0 {
        &mut self.cp0
    }

    /// The TLB.
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// Mutable TLB (host kernel services use this). Every edit moves the
    /// TLB's generation forward, which the machine's translation caches
    /// check; restore a checkpointed TLB through [`Machine::restore`], not
    /// [`Tlb::restore`], which sets the generation back.
    pub fn tlb_mut(&mut self) -> &mut Tlb {
        &mut self.tlb
    }

    /// Physical memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable physical memory.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Total cycles executed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Adds externally-modeled cycles (host-level kernel services charge
    /// their costs through this).
    pub fn charge_cycles(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Total instructions retired.
    pub fn instructions_retired(&self) -> u64 {
        self.instret
    }

    /// Number of exceptions taken (kernel- or user-vectored).
    pub fn exceptions_taken(&self) -> u64 {
        self.exceptions_taken
    }

    /// Attaches a profiler; returns the previous one.
    pub fn set_profiler(&mut self, p: Option<Profiler>) -> Option<Profiler> {
        std::mem::replace(&mut self.profiler, p)
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// Attaches an execution trace; returns the previous one.
    pub fn set_trace(&mut self, t: Option<crate::trace::Trace>) -> Option<crate::trace::Trace> {
        std::mem::replace(&mut self.trace, t)
    }

    /// The attached execution trace, if any.
    pub fn trace(&self) -> Option<&crate::trace::Trace> {
        self.trace.as_ref()
    }

    /// Mutable access to the attached profiler.
    pub fn profiler_mut(&mut self) -> Option<&mut Profiler> {
        self.profiler.as_mut()
    }

    /// The block cache's (hits, misses): [`Machine::superblock_stats`]
    /// without the invalidation count. The superblock cache is the
    /// machine's only decoded-instruction cache; this alias keeps the
    /// name callers outside the workspace (the host-time benchmark) read.
    /// Host-side observability only — never part of architectural state.
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        (self.sb_hits, self.sb_misses)
    }

    /// The execution engine driving [`Machine::run`].
    pub fn engine(&self) -> ExecEngine {
        self.engine
    }

    /// Empties every superblock in place, keeping the allocations.
    fn vacate_superblocks(&mut self) {
        for block in self.sbcache.iter_mut().flatten() {
            block.ops.clear();
        }
    }

    /// Superblock-cache (hits, misses, invalidations) over the machine's
    /// lifetime. Hits and misses count block *entries*; invalidations count
    /// blocks discarded because a store rewrote their own text mid-run.
    /// Host-side observability only — never part of architectural state.
    pub fn superblock_stats(&self) -> (u64, u64, u64) {
        (self.sb_hits, self.sb_misses, self.sb_invalidations)
    }

    /// Current ASID (from `EntryHi`).
    pub fn asid(&self) -> u8 {
        ((self.cp0.entry_hi >> 6) & 0x3f) as u8
    }

    /// Sets the current ASID.
    pub fn set_asid(&mut self, asid: u8) {
        self.cp0.entry_hi = (self.cp0.entry_hi & !0xfc0) | (u32::from(asid & 0x3f) << 6);
    }

    /// Sets the PC (and the sequential next-PC).
    pub fn set_pc(&mut self, pc: u32) {
        self.cpu.pc = pc;
        self.cpu.next_pc = pc.wrapping_add(4);
        self.prev_was_branch = false;
    }

    /// Whether the machine is in user mode.
    pub fn user_mode(&self) -> bool {
        self.cp0.user_mode()
    }

    // --- checkpoint / restore --------------------------------------------

    /// Captures the complete architectural state of the machine as a
    /// [`crate::snapshot::MachineState`]: registers, CP0, every TLB slot
    /// (empty-slot identity preserved) plus the generation counter, the
    /// pending delay-slot flag, cycle/instret/exception counters, and the
    /// non-zero pages of physical memory (sparse). Only pages written since
    /// the machine was built ([`Memory::written_pages`]) are read: every
    /// other page is zero by construction, so capture costs O(pages ever
    /// written), not O(physical memory). Host-side observability —
    /// profiler, trace hooks, the block cache and its counters — is
    /// deliberately excluded: it is not architectural state, and blocks
    /// are rebuilt on demand after a restore.
    pub fn snapshot(&self) -> crate::snapshot::MachineState {
        let mem_size = self.mem.size();
        let mut pages = Vec::new();
        let mut page = [0; crate::snapshot::SNAP_PAGE];
        for page_idx in self.mem.written_pages() {
            let (paddr, len) = self.page_span(page_idx);
            let (in_range, padding) = page.split_at_mut(len);
            self.mem
                .read_into(paddr, in_range)
                .expect("written page within physical memory");
            padding.fill(0);
            if page.iter().any(|&b| b != 0) {
                pages.push((page_idx, page.to_vec()));
            }
        }
        crate::snapshot::MachineState {
            regs: self.cpu.regs(),
            hi: self.cpu.hi(),
            lo: self.cpu.lo(),
            pc: self.cpu.pc,
            next_pc: self.cpu.next_pc,
            prev_was_branch: self.prev_was_branch,
            cp0: self.cp0.clone(),
            tlb_slots: *self.tlb.slots(),
            tlb_generation: self.tlb.generation(),
            cycles: self.cycles,
            instret: self.instret,
            exceptions_taken: self.exceptions_taken,
            mem_size: mem_size as u32,
            pages,
        }
    }

    /// Restores architectural state captured by [`Machine::snapshot`].
    ///
    /// The receiver keeps its own host-side configuration (execution
    /// engine, profiler, trace hooks) — a snapshot taken under the
    /// interpreter restores onto a superblock machine and vice versa, and
    /// both resume bit-exact. The block cache is emptied: its tags reference the *receiver's* pre-restore TLB
    /// generation and page write-versions, and memory is rewritten below
    /// them. The data-translation cache is emptied as well, since the
    /// restored generation may be one the receiver already cached under
    /// other TLB contents. Memory restore zero-fills the receiver's written pages
    /// ([`Memory::written_pages`]; every other page is already zero), then
    /// writes the snapshot's pages, both through the normal write path: every
    /// page whose content may change has its write-version advanced, so any
    /// text cached by observers of this memory is invalidated, exactly as a
    /// guest store would. Pages that were zero and stay zero are untouched.
    ///
    /// # Errors
    ///
    /// [`efex_snap::SnapError::Invalid`] if the snapshot's physical memory
    /// size differs from the receiver's, or a page lies outside it.
    pub fn restore(
        &mut self,
        s: &crate::snapshot::MachineState,
    ) -> Result<(), efex_snap::SnapError> {
        if s.mem_size as usize != self.mem.size() {
            return Err(efex_snap::SnapError::Invalid(format!(
                "snapshot has {} bytes of physical memory, machine has {}",
                s.mem_size,
                self.mem.size()
            )));
        }
        let n_pages = self.mem.size().div_ceil(crate::snapshot::SNAP_PAGE);
        for (page_idx, bytes) in &s.pages {
            if bytes.len() != crate::snapshot::SNAP_PAGE || (*page_idx as usize) >= n_pages {
                return Err(efex_snap::SnapError::Invalid(format!(
                    "snapshot page {page_idx:#x} out of range"
                )));
            }
        }
        let written: Vec<u32> = self.mem.written_pages().collect();
        for page_idx in written {
            let (paddr, len) = self.page_span(page_idx);
            self.mem.zero(paddr, len).expect("written page fits");
        }
        for (page_idx, bytes) in &s.pages {
            let (paddr, len) = self.page_span(*page_idx);
            self.mem
                .write_bytes(paddr, &bytes[..len])
                .expect("page range checked above");
        }
        self.cpu.set_regs(s.regs);
        self.cpu.set_hi(s.hi);
        self.cpu.set_lo(s.lo);
        self.cpu.pc = s.pc;
        self.cpu.next_pc = s.next_pc;
        self.prev_was_branch = s.prev_was_branch;
        self.cp0 = s.cp0.clone();
        self.tlb.restore(s.tlb_slots, s.tlb_generation);
        self.cycles = s.cycles;
        self.instret = s.instret;
        self.exceptions_taken = s.exceptions_taken;
        // Empty the block cache: its tags predate the restore.
        self.vacate_superblocks();
        // Empty the data-translation cache too: the TLB's generation was
        // set back, so a line tagged with a generation this machine reached
        // before the restore could match a different TLB.
        self.dtlb = [DtlbLine::EMPTY; DTLB_LINES];
        Ok(())
    }

    /// Physical address and in-range length of snapshot page `page_idx`:
    /// a whole [`crate::snapshot::SNAP_PAGE`], except a final partial page.
    fn page_span(&self, page_idx: u32) -> (u32, usize) {
        let paddr = page_idx as usize * crate::snapshot::SNAP_PAGE;
        let len = crate::snapshot::SNAP_PAGE.min(self.mem.size() - paddr);
        (paddr as u32, len)
    }

    /// A cheap digest of the machine's architectural register state: GPRs,
    /// HI/LO, both PCs, the delay-slot flag, all CP0 registers, the full
    /// TLB (slots + generation), and the cycle/instret/exception counters.
    /// Physical memory is *excluded* — hashing it every step would dominate
    /// the simulation — so record-replay strides catch register-visible
    /// divergence at the digest and fall back to memory-visible divergence
    /// at the next faulting access.
    pub fn step_digest(&self) -> u64 {
        let mut d = efex_snap::Fnv64::new();
        for r in self.cpu.regs() {
            d.write_u32(r);
        }
        d.write_u32(self.cpu.hi());
        d.write_u32(self.cpu.lo());
        d.write_u32(self.cpu.pc);
        d.write_u32(self.cpu.next_pc);
        d.update(&[u8::from(self.prev_was_branch)]);
        for v in [
            self.cp0.index,
            self.cp0.random,
            self.cp0.entry_lo,
            self.cp0.context,
            self.cp0.bad_vaddr,
            self.cp0.entry_hi,
            self.cp0.status,
            self.cp0.cause,
            self.cp0.epc,
            self.cp0.uxt,
            self.cp0.uxc,
            self.cp0.uxm,
        ] {
            d.write_u32(v);
        }
        d.write_u64(self.tlb.generation());
        for slot in self.tlb.slots() {
            match slot {
                None => d.update(&[0]),
                Some(e) => {
                    d.update(&[1]);
                    d.write_u32(e.entry_hi());
                    d.write_u32(e.entry_lo());
                }
            }
        }
        d.write_u64(self.cycles);
        d.write_u64(self.instret);
        d.write_u64(self.exceptions_taken);
        d.finish()
    }

    // --- image loading ---------------------------------------------------

    /// Loads an assembled program image. Segment addresses must be KSEG0 or
    /// KSEG1 virtual addresses (the kernel's unmapped windows).
    ///
    /// # Errors
    ///
    /// Fails if a segment lies outside KSEG0/KSEG1 or past physical memory.
    pub fn load_image(&mut self, prog: &Program) -> Result<(), MachineError> {
        for seg in prog.segments() {
            let paddr =
                kseg_to_phys(seg.addr).ok_or(MachineError::UnmappedImageSegment(seg.addr))?;
            self.mem
                .write_bytes(paddr, &seg.bytes)
                .map_err(|_| MachineError::ImageOutOfRange(seg.addr))?;
        }
        Ok(())
    }

    // --- address translation --------------------------------------------

    /// Translates a virtual address for the given access, raising no
    /// exception: returns the fault that *would* be raised.
    ///
    /// # Errors
    ///
    /// Returns the exception code and bad address on failure.
    pub fn translate(
        &self,
        vaddr: u32,
        access: Access,
        user_mode: bool,
    ) -> Result<u32, (ExcCode, u32)> {
        // Alignment is checked by callers (it depends on access width).
        if vaddr < 0x8000_0000 {
            // KUSEG: TLB-mapped for everyone.
            self.tlb
                .translate(vaddr, self.asid(), access == Access::Store)
                .map_err(|f| (tlb_fault_code(f, access), vaddr))
        } else if user_mode {
            // User access to kernel space: address error.
            Err((access.addr_err(), vaddr))
        } else if vaddr < 0xc000_0000 {
            // KSEG0 / KSEG1: unmapped.
            Ok(vaddr & 0x1fff_ffff)
        } else {
            // KSEG2: TLB-mapped kernel space.
            self.tlb
                .translate(vaddr, self.asid(), access == Access::Store)
                .map_err(|f| (tlb_fault_code(f, access), vaddr))
        }
    }

    /// [`Machine::translate`] for a data access, through the
    /// data-translation cache when `CACHED` and `vaddr` is in KUSEG (whose
    /// translation does not depend on the processor mode). A line serves
    /// the access when its page, ASID and TLB generation all match and,
    /// for a store, a store filled it; anything else translates and
    /// refills the line, and a failed translation leaves it as it was.
    #[inline(always)]
    fn translate_data<const CACHED: bool>(
        &mut self,
        vaddr: u32,
        access: Access,
        user: bool,
    ) -> Result<u32, (ExcCode, u32)> {
        if !CACHED || vaddr >= 0x8000_0000 {
            return self.translate(vaddr, access, user);
        }
        let vpn = vaddr >> 12;
        let line = &self.dtlb[vpn as usize % DTLB_LINES];
        if line.vpn == vpn
            && line.tlb_gen == self.tlb.generation()
            && line.asid == self.asid()
            && (line.writable || access != Access::Store)
        {
            return Ok(line.frame | (vaddr & 0xfff));
        }
        self.fill_dtlb(vaddr, access, user)
    }

    /// Translates a KUSEG data address and caches its frame (see
    /// [`Machine::translate_data`]).
    #[inline(never)]
    fn fill_dtlb(&mut self, vaddr: u32, access: Access, user: bool) -> Result<u32, (ExcCode, u32)> {
        let paddr = self.translate(vaddr, access, user)?;
        let vpn = vaddr >> 12;
        self.dtlb[vpn as usize % DTLB_LINES] = DtlbLine {
            vpn,
            asid: self.asid(),
            writable: access == Access::Store,
            tlb_gen: self.tlb.generation(),
            frame: paddr & !0xfff,
        };
        Ok(paddr)
    }

    // --- execution -------------------------------------------------------

    /// Runs until a host call, or until `max_steps` instructions retire.
    /// The step budget counts instructions *attempted* (a faulting
    /// instruction consumes its slot) — identically under both engines.
    pub fn run(&mut self, max_steps: u64) -> Result<StopReason, MachineError> {
        if self.engine == ExecEngine::Superblock {
            return self.run_superblock(max_steps);
        }
        for _ in 0..max_steps {
            if let Some(stop) = self.step()? {
                return Ok(stop);
            }
        }
        Ok(StopReason::StepLimit)
    }

    /// The superblock engine's run loop: execute whole cached blocks from
    /// the current PC, falling back to one generic [`Machine::step`]
    /// whenever the leading instruction can't live in a block (pending
    /// delay slot, misaligned PC, sensitive op, fetch fault) or only one
    /// instruction of budget is left.
    fn run_superblock(&mut self, max_steps: u64) -> Result<StopReason, MachineError> {
        let mut remaining = max_steps;
        while remaining > 0 {
            if remaining == 1 || self.prev_was_branch || self.cpu.pc & 3 != 0 {
                // A pending branch means the next op is a delay slot whose
                // next_pc must not be sequential — blocks assume sequential
                // entry, so the generic path runs it (this also covers the
                // branch-in-delay-slot corner exactly as the interpreter).
                // A one-instruction budget would retire only a block's first
                // op: single-stepping callers would otherwise build a fresh
                // block, decoding the rest of the run, at every instruction.
                if let Some(stop) = self.step()? {
                    return Ok(stop);
                }
                remaining -= 1;
                continue;
            }
            if let Some(stop) = self.exec_block(&mut remaining)? {
                return Ok(stop);
            }
        }
        Ok(StopReason::StepLimit)
    }

    /// Probes (building on miss) and dispatches the superblock starting at
    /// the current PC, charging `remaining` once per instruction attempted.
    fn exec_block(&mut self, remaining: &mut u64) -> Result<Option<StopReason>, MachineError> {
        let pc = self.cpu.pc;
        let user = self.cp0.user_mode();
        let slot = sblock_set(pc);
        let valid = self.block_valid(slot, pc, user)
            || (self.block_valid(slot + 1, pc, user) && {
                // Way 1 hit: it becomes the set's most recent block.
                self.sbcache.swap(slot, slot + 1);
                true
            });
        if valid {
            self.sb_hits += 1;
        } else {
            self.sb_misses += 1;
            if !self.build_block(pc, user) {
                // No block can start here (sensitive leading op, fetch
                // fault, undecodable word): one generic step handles it —
                // including raising the exact fault the interpreter would.
                let stop = self.step()?;
                *remaining -= 1;
                return Ok(stop);
            }
        }
        let mut block = self.sbcache[slot]
            .take()
            .expect("block probed or just built");
        let end = if self.trace.is_some() || self.profiler.is_some() {
            self.exec_ops::<true>(&block, remaining)
        } else {
            self.exec_ops::<false>(&block, remaining)
        };
        if end == BlockEnd::Patched {
            // A store rewrote the block's own text page: the pre-decoded
            // ops are stale, so the block is reinstalled vacant and the
            // next entry refetches the patched words.
            block.ops.clear();
            self.sb_invalidations += 1;
        }
        self.sbcache[slot] = Some(block);
        Ok(match end {
            BlockEnd::HostCall(code) => Some(StopReason::HostCall(code)),
            _ => None,
        })
    }

    /// Whether the block in `slot` starts at `pc` in the current mode and is
    /// exact: its text is unwritten since the build and it still translates
    /// as it did (see [`Machine::block_translation_current`]).
    fn block_valid(&mut self, slot: usize, pc: u32, user: bool) -> bool {
        self.sbcache[slot].as_deref().is_some_and(|b| {
            b.start_pc == pc
                && !b.ops.is_empty()
                && b.user == user
                && b.mem_version == self.mem.page_version(b.page_paddr)
        }) && self.block_translation_current(slot, pc, user)
    }

    /// Whether the block in `slot` (which starts at `pc`) still translates
    /// as it did when it was tagged. Past the cheap tag check, any TLB
    /// change since then (a refill, a `utlbp` toggle, an ASID switch) costs
    /// one fetch translation of `pc`: if it still lands on the block's
    /// physical page the block is exact — it never spans pages, and its
    /// text's write version was checked by the caller — so it is retagged.
    /// A failed or moved translation returns `false`, and the rebuild or
    /// generic step that follows raises the interpreter's exact fault.
    fn block_translation_current(&mut self, slot: usize, pc: u32, user: bool) -> bool {
        let asid = self.asid();
        let tlb_gen = self.tlb.generation();
        let b = self.sbcache[slot].as_deref().expect("block probed");
        if !b.mapped || (b.asid == asid && b.tlb_gen == tlb_gen) {
            return true;
        }
        let page_paddr = b.page_paddr;
        if !self
            .translate(pc, Access::Fetch, user)
            .is_ok_and(|paddr| paddr & !0xfff == page_paddr)
        {
            return false;
        }
        let b = self.sbcache[slot].as_deref_mut().expect("block probed");
        b.asid = asid;
        b.tlb_gen = tlb_gen;
        true
    }

    /// Pre-decodes the straight-line run starting at `pc` into a superblock
    /// and installs it. The run ends at the first control transfer (its
    /// delay slot rides along when it is a plain same-page op), before any
    /// block-ending sensitive op (see [`ends_block`]), at the page
    /// boundary, or at [`SBLOCK_MAX_OPS`]. The new block goes to way 0 of
    /// its set, rebuilt in place when way 0 holds a vacancy or a stale
    /// block at `pc`; otherwise way 0's block moves to way 1 and the block
    /// way 1 held is evicted. Returns `false` when no block can start at
    /// `pc`.
    fn build_block(&mut self, pc: u32, user: bool) -> bool {
        let Ok(paddr) = self.translate(pc, Access::Fetch, user) else {
            return false;
        };
        // A block holds at least its leading op; without one the slot keeps
        // whatever block it has.
        let lead = self.mem.read_u32(paddr).ok().and_then(|w| decode(w).ok());
        if lead.is_none_or(ends_block) {
            return false;
        }
        let page_paddr = paddr & !0xfff;
        let mem_version = self.mem.page_version(page_paddr);
        let slot = sblock_set(pc);
        if self.sbcache[slot]
            .as_deref()
            .is_some_and(|b| b.start_pc != pc && !b.ops.is_empty())
        {
            self.sbcache.swap(slot, slot + 1);
        }
        // Rebuild in the victim's block, keeping its allocation and its op
        // buffer's capacity.
        let mut block = self.sbcache[slot].take().unwrap_or_default();
        let mut ops = std::mem::take(&mut block.ops);
        ops.clear();
        let mut va = pc;
        let mut pa = paddr;
        while ops.len() < SBLOCK_MAX_OPS {
            let Ok(word) = self.mem.read_u32(pa) else {
                break;
            };
            let Ok(inst) = decode(word) else { break };
            if ends_block(inst) {
                break;
            }
            let is_ct = inst.is_control_transfer();
            ops.push(SbOp {
                word,
                inst,
                cost: cycles::static_cost(inst),
                is_ct,
                is_store: inst.is_store(),
            });
            if is_ct {
                // The delay slot joins the block when it is a plain op on
                // the same page; otherwise the block ends at the branch and
                // the generic path picks the slot up (covering cross-page
                // slots and branch-in-delay-slot identically either way).
                if va.wrapping_add(4) & 0xfff != 0 {
                    if let Ok(w) = self.mem.read_u32(pa + 4) {
                        if let Ok(di) = decode(w) {
                            if !di.is_control_transfer() && !ends_block(di) {
                                ops.push(SbOp {
                                    word: w,
                                    inst: di,
                                    cost: cycles::static_cost(di),
                                    is_ct: false,
                                    is_store: di.is_store(),
                                });
                            }
                        }
                    }
                }
                break;
            }
            va = va.wrapping_add(4);
            if va & 0xfff == 0 {
                break;
            }
            pa += 4;
        }
        *block = SuperBlock {
            start_pc: pc,
            user,
            mapped: !(0x8000_0000..0xc000_0000).contains(&pc),
            asid: self.asid(),
            tlb_gen: self.tlb.generation(),
            page_paddr,
            mem_version,
            ops,
        };
        self.sbcache[slot] = Some(block);
        true
    }

    /// Dispatches a pre-decoded block. Every op replays exactly what
    /// [`Machine::step`] would have done — trace record, sequential PC
    /// advance, cycle/instret accounting, profiler attribution, fault
    /// delivery — minus the per-instruction fetch, tag probe, and decode.
    ///
    /// The bookkeeping is paid once per block. The caller picks `HOOKS`
    /// (whether a trace or profiler is attached), and only the ops that fit
    /// in `remaining` run, so no op checks the hooks or the budget. The
    /// cycle count and the delay-slot flag live in locals; they, the
    /// retired count and the budget are written back at the loop's one
    /// exit, before a fault is raised ([`Machine::raise`] adds its entry
    /// cost to the cycle count).
    fn exec_ops<const HOOKS: bool>(&mut self, b: &SuperBlock, remaining: &mut u64) -> BlockEnd {
        let user = b.user;
        let fit = (*remaining).min(b.ops.len() as u64) as usize;
        let mut cycles = self.cycles;
        let mut in_delay = self.prev_was_branch;
        let mut ran: u64 = 0;
        let mut end = BlockEnd::Ran;
        for op in &b.ops[..fit] {
            ran += 1;
            let pc = self.cpu.pc;
            let op_in_delay = std::mem::replace(&mut in_delay, op.is_ct);
            if HOOKS {
                if let Some(t) = self.trace.as_mut() {
                    t.record(pc, op.word, user);
                }
            }
            self.cpu.pc = self.cpu.next_pc;
            self.cpu.next_pc = self.cpu.next_pc.wrapping_add(4);
            let outcome = self.execute::<true>(op.inst, pc, user);
            cycles += op.cost;
            let exit = match outcome {
                // The store hit this block's own text: the remaining
                // pre-decoded ops may be stale, so fall back to the generic
                // path, which refetches the patched words.
                Exec::Ok if op.is_store && self.mem.page_version(b.page_paddr) != b.mem_version => {
                    Some(BlockEnd::Patched)
                }
                Exec::Ok => None,
                Exec::HostCall(code) => Some(BlockEnd::HostCall(code)),
                Exec::Fault(code, bad) => {
                    end = BlockEnd::Fault {
                        code,
                        pc,
                        bad,
                        in_delay: op_in_delay,
                    };
                    break;
                }
            };
            if HOOKS {
                if let Some(p) = self.profiler.as_mut() {
                    p.record(pc, op.cost);
                }
            }
            if let Some(exit) = exit {
                end = exit;
                break;
            }
        }
        self.cycles = cycles;
        self.prev_was_branch = in_delay;
        *remaining -= ran;
        self.instret += ran;
        if let BlockEnd::Fault {
            code,
            pc,
            bad,
            in_delay,
        } = end
        {
            // The faulting op consumed its budget and its cycles but does
            // not retire.
            self.instret -= 1;
            self.raise(code, pc, bad, in_delay);
        }
        end
    }

    /// Executes one instruction (or takes one exception): translate the PC,
    /// read the word, decode it, execute it. This is the reference both
    /// engines share — the interpreter runs every instruction through it,
    /// the superblock engine every instruction no block can hold.
    ///
    /// Returns `Some(StopReason::HostCall(..))` if the instruction was a
    /// privileged `hcall`.
    pub fn step(&mut self) -> Result<Option<StopReason>, MachineError> {
        let pc = self.cpu.pc;
        let in_delay = self.prev_was_branch;
        let user = self.cp0.user_mode();

        // Fetch: alignment, translation, then memory.
        if pc & 3 != 0 {
            self.raise(ExcCode::AddrErrLoad, pc, Some(pc), in_delay);
            return Ok(None);
        }
        let paddr = match self.translate(pc, Access::Fetch, user) {
            Ok(p) => p,
            Err((code, bad)) => {
                self.raise(code, pc, Some(bad), in_delay);
                return Ok(None);
            }
        };
        let word = match self.mem.read_u32(paddr) {
            Ok(w) => w,
            Err(_) => {
                self.raise(ExcCode::BusErrFetch, pc, Some(pc), in_delay);
                return Ok(None);
            }
        };
        let inst = match decode(word) {
            Ok(i) => i,
            Err(_) => {
                self.raise(ExcCode::ReservedInstr, pc, None, in_delay);
                return Ok(None);
            }
        };
        if let Some(t) = self.trace.as_mut() {
            t.record(pc, word, user);
        }

        // Advance sequentially; branches below overwrite next_pc.
        self.cpu.pc = self.cpu.next_pc;
        self.cpu.next_pc = self.cpu.next_pc.wrapping_add(4);
        self.prev_was_branch = inst.is_control_transfer();

        let cost = cycles::charged(inst, user);
        let outcome = self.execute::<false>(inst, pc, user);

        self.cycles += cost;
        match outcome {
            Exec::Ok => {
                self.instret += 1;
                if let Some(p) = self.profiler.as_mut() {
                    p.record(pc, cost);
                }
                Ok(None)
            }
            Exec::HostCall(code) => {
                self.instret += 1;
                if let Some(p) = self.profiler.as_mut() {
                    p.record(pc, cost);
                }
                Ok(Some(StopReason::HostCall(code)))
            }
            Exec::Fault(code, bad) => {
                // The faulting instruction must not retire: rewind the
                // sequential advance (raise() sets the PC anyway).
                self.raise(code, pc, bad, in_delay);
                Ok(None)
            }
        }
    }

    /// Executes a decoded instruction. Everything the ALU, branch and
    /// load/store arms compute comes from [`sem`]: each opcode has its own
    /// arm so that the `#[inline(always)]` `sem` call folds its inner match.
    ///
    /// This one body serves both engines: it is inlined into the block
    /// loop, whose loads and stores use the data-translation cache
    /// (`CACHED`), and into [`Machine::step`], whose do not.
    #[inline(always)]
    fn execute<const CACHED: bool>(&mut self, inst: Instruction, pc: u32, user: bool) -> Exec {
        use Instruction::*;
        let c = &mut self.cpu;
        match inst {
            Sll { rd, rt, .. } => return c.alu(inst, rd, 0, c.reg(rt)),
            Srl { rd, rt, .. } => return c.alu(inst, rd, 0, c.reg(rt)),
            Sra { rd, rt, .. } => return c.alu(inst, rd, 0, c.reg(rt)),
            Sllv { rd, rt, rs } => return c.alu(inst, rd, c.reg(rs), c.reg(rt)),
            Srlv { rd, rt, rs } => return c.alu(inst, rd, c.reg(rs), c.reg(rt)),
            Srav { rd, rt, rs } => return c.alu(inst, rd, c.reg(rs), c.reg(rt)),
            Jr { rs } => c.next_pc = c.reg(rs),
            Jalr { rd, rs } => {
                let target = c.reg(rs);
                c.set_reg(rd, pc.wrapping_add(8));
                c.next_pc = target;
            }
            Syscall { .. } => return Exec::Fault(ExcCode::Syscall, None),
            Break { .. } => return Exec::Fault(ExcCode::Breakpoint, None),
            Mfhi { rd } => c.set_reg(rd, c.hi),
            Mthi { rs } => c.hi = c.reg(rs),
            Mflo { rd } => c.set_reg(rd, c.lo),
            Mtlo { rs } => c.lo = c.reg(rs),
            Mult { rs, rt } => {
                let p = i64::from(c.reg(rs) as i32) * i64::from(c.reg(rt) as i32);
                c.lo = p as u32;
                c.hi = (p >> 32) as u32;
            }
            Multu { rs, rt } => {
                let p = u64::from(c.reg(rs)) * u64::from(c.reg(rt));
                c.lo = p as u32;
                c.hi = (p >> 32) as u32;
            }
            Div { rs, rt } => {
                let (a, b) = (c.reg(rs) as i32, c.reg(rt) as i32);
                // MIPS-I: division by zero is silent; HI/LO stay undefined.
                #[allow(clippy::manual_checked_ops)]
                if b != 0 {
                    c.lo = a.wrapping_div(b) as u32;
                    c.hi = a.wrapping_rem(b) as u32;
                }
                // Division by zero leaves HI/LO undefined; we leave them be.
            }
            Divu { rs, rt } => {
                let (a, b) = (c.reg(rs), c.reg(rt));
                // MIPS-I: division by zero is silent; HI/LO stay undefined.
                #[allow(clippy::manual_checked_ops)]
                if b != 0 {
                    c.lo = a / b;
                    c.hi = a % b;
                }
            }
            Add { rd, rs, rt } => return c.alu(inst, rd, c.reg(rs), c.reg(rt)),
            Addu { rd, rs, rt } => return c.alu(inst, rd, c.reg(rs), c.reg(rt)),
            Sub { rd, rs, rt } => return c.alu(inst, rd, c.reg(rs), c.reg(rt)),
            Subu { rd, rs, rt } => return c.alu(inst, rd, c.reg(rs), c.reg(rt)),
            And { rd, rs, rt } => return c.alu(inst, rd, c.reg(rs), c.reg(rt)),
            Or { rd, rs, rt } => return c.alu(inst, rd, c.reg(rs), c.reg(rt)),
            Xor { rd, rs, rt } => return c.alu(inst, rd, c.reg(rs), c.reg(rt)),
            Nor { rd, rs, rt } => return c.alu(inst, rd, c.reg(rs), c.reg(rt)),
            Slt { rd, rs, rt } => return c.alu(inst, rd, c.reg(rs), c.reg(rt)),
            Sltu { rd, rs, rt } => return c.alu(inst, rd, c.reg(rs), c.reg(rt)),
            Beq { rs, rt, imm } => c.branch(inst, pc, c.reg(rs), c.reg(rt), imm),
            Bne { rs, rt, imm } => c.branch(inst, pc, c.reg(rs), c.reg(rt), imm),
            Blez { rs, imm } => c.branch(inst, pc, c.reg(rs), 0, imm),
            Bgtz { rs, imm } => c.branch(inst, pc, c.reg(rs), 0, imm),
            Bltz { rs, imm } => c.branch(inst, pc, c.reg(rs), 0, imm),
            Bgez { rs, imm } => c.branch(inst, pc, c.reg(rs), 0, imm),
            Bltzal { rs, imm } => c.link_branch(inst, pc, c.reg(rs), imm),
            Bgezal { rs, imm } => c.link_branch(inst, pc, c.reg(rs), imm),
            Addi { rt, rs, .. } => return c.alu(inst, rt, c.reg(rs), 0),
            Addiu { rt, rs, .. } => return c.alu(inst, rt, c.reg(rs), 0),
            Slti { rt, rs, .. } => return c.alu(inst, rt, c.reg(rs), 0),
            Sltiu { rt, rs, .. } => return c.alu(inst, rt, c.reg(rs), 0),
            Andi { rt, rs, .. } => return c.alu(inst, rt, c.reg(rs), 0),
            Ori { rt, rs, .. } => return c.alu(inst, rt, c.reg(rs), 0),
            Xori { rt, rs, .. } => return c.alu(inst, rt, c.reg(rs), 0),
            Lui { rt, .. } => return c.alu(inst, rt, 0, 0),
            Lb { .. } => return self.access::<CACHED>(inst, user),
            Lh { .. } => return self.access::<CACHED>(inst, user),
            Lw { .. } => return self.access::<CACHED>(inst, user),
            Lbu { .. } => return self.access::<CACHED>(inst, user),
            Lhu { .. } => return self.access::<CACHED>(inst, user),
            Sb { .. } => return self.access::<CACHED>(inst, user),
            Sh { .. } => return self.access::<CACHED>(inst, user),
            Sw { .. } => return self.access::<CACHED>(inst, user),
            J { target } => c.next_pc = sem::jump_target(pc, target),
            Jal { target } => {
                c.set_reg(Reg::RA, pc.wrapping_add(8));
                c.next_pc = sem::jump_target(pc, target);
            }
            Mfc0 { rt, rd } => {
                if user && !user_cp0_reg(rd) {
                    return Exec::Fault(ExcCode::CopUnusable, None);
                }
                let v = self.cp0.read(rd);
                self.cpu.set_reg(rt, v);
            }
            Mtc0 { rt, rd } => {
                if user && !user_cp0_reg_writable(rd) {
                    return Exec::Fault(ExcCode::CopUnusable, None);
                }
                let v = self.cpu.reg(rt);
                self.cp0.write(rd, v);
            }
            Tlbr => {
                if user {
                    return Exec::Fault(ExcCode::CopUnusable, None);
                }
                let idx = ((self.cp0.index >> 8) & 0x3f) as usize;
                let e = self.tlb.read(idx % crate::tlb::TLB_ENTRIES);
                self.cp0.entry_hi = e.entry_hi();
                self.cp0.entry_lo = e.entry_lo();
            }
            Tlbwi => {
                if user {
                    return Exec::Fault(ExcCode::CopUnusable, None);
                }
                let idx = ((self.cp0.index >> 8) & 0x3f) as usize;
                let e = crate::tlb::TlbEntry::from_raw(self.cp0.entry_hi, self.cp0.entry_lo);
                self.tlb.write(idx % crate::tlb::TLB_ENTRIES, e);
            }
            Tlbwr => {
                if user {
                    return Exec::Fault(ExcCode::CopUnusable, None);
                }
                // Random replacement avoids the 8 wired entries, like the
                // R3000; the CP0 "random" value is a deterministic counter.
                let idx = 8 + (self.cp0.random as usize % (crate::tlb::TLB_ENTRIES - 8));
                let e = crate::tlb::TlbEntry::from_raw(self.cp0.entry_hi, self.cp0.entry_lo);
                self.tlb.write(idx, e);
                self.cp0.random = self.cp0.random.wrapping_add(13) % 56;
            }
            Tlbp => {
                if user {
                    return Exec::Fault(ExcCode::CopUnusable, None);
                }
                let vaddr = self.cp0.entry_hi & 0xffff_f000;
                let asid = ((self.cp0.entry_hi >> 6) & 0x3f) as u8;
                match self.tlb.probe(vaddr, asid) {
                    Some(i) => self.cp0.index = (i as u32) << 8,
                    None => self.cp0.index = 1 << 31,
                }
            }
            Rfe => {
                if user {
                    return Exec::Fault(ExcCode::CopUnusable, None);
                }
                self.cp0.rfe();
            }
            Xpcu => {
                // The Tera-style return: exchange PC and UXT, clearing the
                // in-handler flag. Legal from user mode — that is its point.
                let target = self.cp0.uxt;
                self.cp0.uxt = pc.wrapping_add(4);
                self.cpu.pc = target;
                self.cpu.next_pc = target.wrapping_add(4);
                self.prev_was_branch = false;
                self.cp0.status &= !status::UXA;
            }
            Utlbp { rs, op } => {
                let vaddr = self.cpu.reg(rs);
                return self.utlbp(vaddr, op, user);
            }
            Hcall { code } => {
                if user {
                    return Exec::Fault(ExcCode::CopUnusable, None);
                }
                return Exec::HostCall(code);
            }
        }
        Exec::Ok
    }

    /// Runs a load or store with the registers, width and extension
    /// [`sem::mem_access`] gives it.
    #[inline(always)]
    fn access<const CACHED: bool>(&mut self, inst: Instruction, user: bool) -> Exec {
        match sem::mem_access(inst) {
            Some(a) if a.store => self.store::<CACHED>(a, user),
            Some(a) => self.load::<CACHED>(a, user),
            None => Exec::Fault(ExcCode::ReservedInstr, None),
        }
    }

    #[inline(always)]
    fn load<const CACHED: bool>(&mut self, a: sem::MemAccess, user: bool) -> Exec {
        let vaddr = a.vaddr(self.cpu.reg(a.base));
        // Widths are powers of two: a mask, not a division.
        if vaddr & (a.width - 1) != 0 {
            return Exec::Fault(ExcCode::AddrErrLoad, Some(vaddr));
        }
        let paddr = match self.translate_data::<CACHED>(vaddr, Access::Load, user) {
            Ok(p) => p,
            Err((code, bad)) => return Exec::Fault(code, Some(bad)),
        };
        let raw = match a.width {
            1 => self.mem.read_u8(paddr).map(u32::from),
            2 => self.mem.read_u16(paddr).map(u32::from),
            _ => self.mem.read_u32(paddr),
        };
        match raw {
            Ok(v) => {
                self.cpu.set_reg(a.rt, a.extend(v));
                Exec::Ok
            }
            Err(_) => Exec::Fault(Access::Load.bus_err(), Some(vaddr)),
        }
    }

    #[inline(always)]
    fn store<const CACHED: bool>(&mut self, a: sem::MemAccess, user: bool) -> Exec {
        let vaddr = a.vaddr(self.cpu.reg(a.base));
        if vaddr & (a.width - 1) != 0 {
            return Exec::Fault(ExcCode::AddrErrStore, Some(vaddr));
        }
        let paddr = match self.translate_data::<CACHED>(vaddr, Access::Store, user) {
            Ok(p) => p,
            Err((code, bad)) => return Exec::Fault(code, Some(bad)),
        };
        let v = self.cpu.reg(a.rt);
        let res = match a.width {
            1 => self.mem.write_u8(paddr, v as u8),
            2 => self.mem.write_u16(paddr, v as u16),
            _ => self.mem.write_u32(paddr, v),
        };
        match res {
            Ok(()) => Exec::Ok,
            Err(_) => Exec::Fault(Access::Store.bus_err(), Some(vaddr)),
        }
    }

    fn utlbp(&mut self, vaddr: u32, op: TlbProtOp, user: bool) -> Exec {
        if user && vaddr >= 0x8000_0000 {
            return Exec::Fault(ExcCode::AddrErrLoad, Some(vaddr));
        }
        let asid = self.asid();
        let Some(mut prot) = self.tlb.protection_mut(vaddr, asid) else {
            // No resident entry: fault so the kernel can refill and retry.
            return Exec::Fault(ExcCode::TlbLoad, Some(vaddr));
        };
        if user && !prot.entry().user_modifiable {
            return Exec::Fault(ExcCode::CopUnusable, None);
        }
        match op {
            TlbProtOp::WriteProtect => prot.set_dirty(false),
            TlbProtOp::WriteEnable => prot.set_dirty(true),
            TlbProtOp::ProtectAll => prot.set_valid(false),
            TlbProtOp::ReadEnable => prot.set_valid(true),
        }
        Exec::Ok
    }

    /// Raises an exception from the instruction at `pc` (in the delay slot
    /// of the branch before it when `in_delay`): applies
    /// [`sem::exception_entry`], which decides the route (the paper's
    /// user-level vectoring, the UTLB vector or the general vector) and
    /// everything the entry latches and charges. The machine supplies the
    /// one fact the specification cannot compute: whether a TLB load or
    /// store fault is a refill, i.e. no TLB entry matches the bad address.
    pub fn raise(&mut self, code: ExcCode, pc: u32, bad_vaddr: Option<u32>, in_delay: bool) {
        let tlb_refill = matches!(code, ExcCode::TlbLoad | ExcCode::TlbStore)
            && bad_vaddr.is_some_and(|v| self.tlb.probe(v, self.asid()).is_none());
        self.enter(code, pc, bad_vaddr, in_delay, tlb_refill, true);
    }

    /// [`Machine::raise`] with the user and UTLB routes ruled out: the entry
    /// always takes the general vector. Host kernel services use it to
    /// re-raise a trap they will not complete themselves (a user TLB miss
    /// the refill handler cannot satisfy).
    pub fn raise_to_kernel(&mut self, code: ExcCode, pc: u32, bad: Option<u32>, in_delay: bool) {
        self.enter(code, pc, bad, in_delay, false, false);
    }

    /// Applies the [`sem::exception_entry`] of an exception.
    fn enter(
        &mut self,
        code: ExcCode,
        pc: u32,
        bad_vaddr: Option<u32>,
        in_delay_slot: bool,
        tlb_refill: bool,
        user_vectoring: bool,
    ) {
        let exc = Exception {
            code,
            bad_vaddr,
            in_delay_slot,
            pc,
        };
        let entry = sem::exception_entry(&mut self.cp0, exc, tlb_refill, user_vectoring);
        self.exceptions_taken += 1;
        self.cycles += entry.cycles;
        self.cpu.pc = entry.pc;
        self.cpu.next_pc = entry.pc.wrapping_add(4);
        self.prev_was_branch = false;
    }

    // --- host memory access (used by the host-level kernel) --------------

    /// Reads a word at a *virtual* address using the current translation
    /// state, without raising exceptions or charging cycles.
    ///
    /// # Errors
    ///
    /// Returns the exception that a guest load would have raised.
    pub fn peek_u32(&self, vaddr: u32, user: bool) -> Result<u32, Exception> {
        if vaddr & 3 != 0 {
            return Err(self.fault(ExcCode::AddrErrLoad, vaddr));
        }
        let paddr = self
            .translate(vaddr, Access::Load, user)
            .map_err(|(c, v)| self.fault(c, v))?;
        self.mem
            .read_u32(paddr)
            .map_err(|_| self.fault(ExcCode::BusErrData, vaddr))
    }

    /// Writes a word at a *virtual* address (see [`Machine::peek_u32`]).
    ///
    /// # Errors
    ///
    /// Returns the exception that a guest store would have raised.
    pub fn poke_u32(&mut self, vaddr: u32, value: u32, user: bool) -> Result<(), Exception> {
        if vaddr & 3 != 0 {
            return Err(self.fault(ExcCode::AddrErrStore, vaddr));
        }
        let paddr = self
            .translate(vaddr, Access::Store, user)
            .map_err(|(c, v)| self.fault(c, v))?;
        self.mem
            .write_u32(paddr, value)
            .map_err(|_| self.fault(ExcCode::BusErrData, vaddr))
    }

    /// Reads `out.len()` consecutive words from the *virtual* address
    /// `vaddr` (see [`Machine::peek_u32`]): translated once per page, one
    /// bounds check per page's run.
    ///
    /// # Errors
    ///
    /// The exception of the first word a loop of [`Machine::peek_u32`]
    /// would fail on: misalignment at `vaddr`, the translation fault at
    /// the first word of the first untranslatable page, or a bus error
    /// at the first word past physical memory.
    pub fn peek_words(&self, vaddr: u32, out: &mut [u32], user: bool) -> Result<(), Exception> {
        if vaddr & 3 != 0 && !out.is_empty() {
            return Err(self.fault(ExcCode::AddrErrLoad, vaddr));
        }
        for (va, run) in page_runs(vaddr, out.len()) {
            let paddr = self
                .translate(va, Access::Load, user)
                .map_err(|(c, v)| self.fault(c, v))?;
            self.mem
                .read_words(paddr, &mut out[run])
                .map_err(|e| self.fault(ExcCode::BusErrData, va + (e.paddr - paddr)))?;
        }
        Ok(())
    }

    /// Writes `words` as consecutive words from the *virtual* address
    /// `vaddr` (see [`Machine::poke_u32`]): translated once per page, one
    /// bounds check and one page-version bump per page's run.
    ///
    /// # Errors
    ///
    /// The exception of the first word a loop of [`Machine::poke_u32`]
    /// would fail on (see [`Machine::peek_words`]); every word before it
    /// is written, as that loop would have written it.
    pub fn poke_words(&mut self, vaddr: u32, words: &[u32], user: bool) -> Result<(), Exception> {
        if vaddr & 3 != 0 && !words.is_empty() {
            return Err(self.fault(ExcCode::AddrErrStore, vaddr));
        }
        for (va, run) in page_runs(vaddr, words.len()) {
            let paddr = self
                .translate(va, Access::Store, user)
                .map_err(|(c, v)| self.fault(c, v))?;
            self.mem
                .write_words(paddr, &words[run])
                .map_err(|e| self.fault(ExcCode::BusErrData, va + (e.paddr - paddr)))?;
        }
        Ok(())
    }

    /// Reads one byte at a virtual address (see [`Machine::peek_u32`]).
    ///
    /// # Errors
    ///
    /// Returns the exception that a guest load would have raised.
    pub fn peek_u8(&self, vaddr: u32, user: bool) -> Result<u8, Exception> {
        let paddr = self
            .translate(vaddr, Access::Load, user)
            .map_err(|(c, v)| self.fault(c, v))?;
        self.mem
            .read_u8(paddr)
            .map_err(|_| self.fault(ExcCode::BusErrData, vaddr))
    }

    /// Reads a halfword at a virtual address (see [`Machine::peek_u32`]).
    ///
    /// # Errors
    ///
    /// Returns the exception that a guest load would have raised.
    pub fn peek_u16(&self, vaddr: u32, user: bool) -> Result<u16, Exception> {
        if vaddr & 1 != 0 {
            return Err(self.fault(ExcCode::AddrErrLoad, vaddr));
        }
        let paddr = self
            .translate(vaddr, Access::Load, user)
            .map_err(|(c, v)| self.fault(c, v))?;
        self.mem
            .read_u16(paddr)
            .map_err(|_| self.fault(ExcCode::BusErrData, vaddr))
    }

    fn fault(&self, code: ExcCode, vaddr: u32) -> Exception {
        Exception {
            code,
            bad_vaddr: Some(vaddr),
            in_delay_slot: false,
            pc: self.cpu.pc,
        }
    }
}

enum Exec {
    Ok,
    HostCall(u32),
    Fault(ExcCode, Option<u32>),
}

/// How a superblock run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BlockEnd {
    /// Every op that fitted in the budget retired.
    Ran,
    /// A privileged `hcall` retired.
    HostCall(u32),
    /// A store retired over the block's own text page.
    Patched,
    /// The op at `pc` faulted; the exception has been raised.
    Fault {
        code: ExcCode,
        pc: u32,
        bad: Option<u32>,
        in_delay: bool,
    },
}

impl Cpu {
    /// Writes the [`sem::alu_result`] of a foldable ALU op to `dst`, given
    /// its `rs` and `rt` operand values. A trapping add/sub that overflows
    /// has no result: it writes nothing and faults.
    #[inline(always)]
    fn alu(&mut self, inst: Instruction, dst: Reg, rs: u32, rt: u32) -> Exec {
        match sem::alu_result(inst, rs, rt) {
            Some(v) => {
                self.set_reg(dst, v);
                Exec::Ok
            }
            None => Exec::Fault(ExcCode::Overflow, None),
        }
    }

    /// Redirects the conditional branch at `pc` to its [`sem::branch_target`]
    /// when [`sem::branch_taken`] holds for the operand values.
    #[inline(always)]
    fn branch(&mut self, inst: Instruction, pc: u32, rs: u32, rt: u32, imm: i16) {
        if sem::branch_taken(inst, rs, rt) == Some(true) {
            self.next_pc = sem::branch_target(pc, imm);
        }
    }

    /// `bltzal`/`bgezal`: links `$ra` whether or not the branch is taken.
    /// The condition uses `rs` as read before the link write.
    #[inline(always)]
    fn link_branch(&mut self, inst: Instruction, pc: u32, rs: u32, imm: i16) {
        self.set_reg(Reg::RA, pc.wrapping_add(8));
        self.branch(inst, pc, rs, 0, imm);
    }
}

fn tlb_fault_code(f: TlbFault, access: Access) -> ExcCode {
    match f {
        TlbFault::Modification => ExcCode::TlbMod,
        _ => access.tlb_err(),
    }
}

/// The pieces, one per page, of a run of `len` words from the word-aligned
/// `vaddr`: each piece's first address and its word indices. One
/// translation serves a piece (pages are the TLB's and the segments' unit).
fn page_runs(vaddr: u32, len: usize) -> impl Iterator<Item = (u32, std::ops::Range<usize>)> {
    let mut start = 0;
    std::iter::from_fn(move || {
        (start < len).then(|| {
            let va = vaddr.wrapping_add(4 * start as u32);
            let in_page = (crate::tlb::PAGE_SIZE - (va & (crate::tlb::PAGE_SIZE - 1))) / 4;
            let end = (start + in_page as usize).min(len);
            let piece = (va, start..end);
            start = end;
            piece
        })
    })
}

/// Converts a KSEG0/KSEG1 virtual address to its physical address.
pub fn kseg_to_phys(vaddr: u32) -> Option<u32> {
    (0x8000_0000..0xc000_0000)
        .contains(&vaddr)
        .then_some(vaddr & 0x1fff_ffff)
}

/// Whether user mode may read the CP0 register (paper extension registers
/// UXT and UXC are user-visible so handlers can dispatch and return).
fn user_cp0_reg(rd: u8) -> bool {
    matches!(
        Cp0Reg::from_number(rd),
        Some(Cp0Reg::Uxt | Cp0Reg::Uxc | Cp0Reg::BadVaddr)
    )
}

/// Whether user mode may write the CP0 register (only the user exception
/// target: "user-level software loads [it] with its exception handler
/// address", Section 2.1).
fn user_cp0_reg_writable(rd: u8) -> bool {
    matches!(Cp0Reg::from_number(rd), Some(Cp0Reg::Uxt))
}

impl Instruction {
    /// Convenience: the encoded machine word (`encode(self)`).
    pub fn into_word(self) -> u32 {
        crate::encode::encode(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;

    fn machine_with(words: &[u32], at: u32) -> Machine {
        let mut m = Machine::new(1 << 20);
        let paddr = kseg_to_phys(at).unwrap();
        for (i, w) in words.iter().enumerate() {
            m.mem_mut().write_u32(paddr + 4 * i as u32, *w).unwrap();
        }
        m.set_pc(at);
        m
    }

    fn run_to_hcall(m: &mut Machine) -> u32 {
        match m.run(10_000).unwrap() {
            StopReason::HostCall(c) => c,
            other => panic!("expected hcall, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_and_hcall() {
        let words = [
            encode(Instruction::Addiu {
                rt: Reg::T0,
                rs: Reg::ZERO,
                imm: 21,
            }),
            encode(Instruction::Addu {
                rd: Reg::T1,
                rs: Reg::T0,
                rt: Reg::T0,
            }),
            encode(Instruction::Hcall { code: 3 }),
        ];
        let mut m = machine_with(&words, 0x8000_1000);
        assert_eq!(run_to_hcall(&mut m), 3);
        assert_eq!(m.cpu().reg(Reg::T1), 42);
        assert_eq!(m.instructions_retired(), 3);
    }

    #[test]
    fn zero_register_is_immutable() {
        let words = [
            encode(Instruction::Addiu {
                rt: Reg::ZERO,
                rs: Reg::ZERO,
                imm: 5,
            }),
            encode(Instruction::Hcall { code: 0 }),
        ];
        let mut m = machine_with(&words, 0x8000_1000);
        run_to_hcall(&mut m);
        assert_eq!(m.cpu().reg(Reg::ZERO), 0);
    }

    #[test]
    fn branch_delay_slot_executes() {
        // beq taken; the delay-slot addiu must still execute.
        let words = [
            encode(Instruction::Beq {
                rs: Reg::ZERO,
                rt: Reg::ZERO,
                imm: 2, // skip one instruction beyond the slot
            }),
            encode(Instruction::Addiu {
                rt: Reg::T0,
                rs: Reg::ZERO,
                imm: 1,
            }), // delay slot: executes
            encode(Instruction::Addiu {
                rt: Reg::T1,
                rs: Reg::ZERO,
                imm: 1,
            }), // skipped
            encode(Instruction::Hcall { code: 0 }),
        ];
        let mut m = machine_with(&words, 0x8000_1000);
        run_to_hcall(&mut m);
        assert_eq!(m.cpu().reg(Reg::T0), 1, "delay slot must execute");
        assert_eq!(m.cpu().reg(Reg::T1), 0, "branch target must skip");
    }

    #[test]
    fn jal_links_past_delay_slot() {
        let base = 0x8000_1000u32;
        let words = [
            encode(Instruction::Jal {
                target: (base + 16) >> 2,
            }),
            Instruction::NOP.into_word(),
            encode(Instruction::Hcall { code: 9 }), // should be skipped
            Instruction::NOP.into_word(),
            encode(Instruction::Hcall { code: 1 }), // jal target
        ];
        let mut m = machine_with(&words, base);
        assert_eq!(run_to_hcall(&mut m), 1);
        assert_eq!(m.cpu().reg(Reg::RA), base + 8);
    }

    #[test]
    fn overflow_raises_and_preserves_rd() {
        let words = [
            encode(Instruction::Lui {
                rt: Reg::T0,
                imm: 0x7fff,
            }),
            encode(Instruction::Add {
                rd: Reg::T1,
                rs: Reg::T0,
                rt: Reg::T0,
            }),
        ];
        let mut m = machine_with(&words, 0x8000_1000);
        m.run(2).unwrap();
        assert_eq!(m.cp0().exc_code(), Some(ExcCode::Overflow));
        assert_eq!(m.cpu().pc, GENERAL_VECTOR);
        assert_eq!(m.cpu().reg(Reg::T1), 0, "faulting add must not retire");
        assert_eq!(m.cp0().epc, 0x8000_1004);
    }

    #[test]
    fn unaligned_load_faults_with_bad_vaddr() {
        let words = [
            encode(Instruction::Addiu {
                rt: Reg::T0,
                rs: Reg::ZERO,
                imm: 0x102,
            }),
            encode(Instruction::Lw {
                rt: Reg::T1,
                base: Reg::T0,
                imm: 0,
            }),
        ];
        let mut m = machine_with(&words, 0x8000_1000);
        m.run(2).unwrap();
        assert_eq!(m.cp0().exc_code(), Some(ExcCode::AddrErrLoad));
        assert_eq!(m.cp0().bad_vaddr, 0x102);
    }

    #[test]
    fn delay_slot_fault_sets_bd_and_branch_epc() {
        let words = [
            encode(Instruction::Beq {
                rs: Reg::ZERO,
                rt: Reg::ZERO,
                imm: 4,
            }),
            encode(Instruction::Lw {
                rt: Reg::T1,
                base: Reg::ZERO,
                imm: 0x103, // unaligned -> faults in the delay slot
            }),
        ];
        let mut m = machine_with(&words, 0x8000_1000);
        m.run(2).unwrap();
        assert_eq!(m.cp0().exc_code(), Some(ExcCode::AddrErrLoad));
        assert!(m.cp0().cause_bd(), "BD must be set");
        assert_eq!(m.cp0().epc, 0x8000_1000, "EPC must point at the branch");
    }

    #[test]
    fn syscall_vectors_to_kernel() {
        let words = [encode(Instruction::Syscall { code: 0 })];
        let mut m = machine_with(&words, 0x8000_1000);
        m.run(1).unwrap();
        assert_eq!(m.cp0().exc_code(), Some(ExcCode::Syscall));
        assert_eq!(m.cpu().pc, GENERAL_VECTOR);
    }

    #[test]
    fn user_mode_cannot_touch_kernel_space() {
        // Put the machine in user mode executing from a TLB-mapped page.
        let mut m = Machine::new(1 << 20);
        // Map user page 0x0040_0000 -> phys 0x2000.
        m.tlb_mut().write(
            0,
            crate::tlb::TlbEntry {
                vpn: 0x400,
                asid: 0,
                pfn: 2,
                valid: true,
                dirty: true,
                global: false,
                user_modifiable: false,
            },
        );
        let insts = [encode(Instruction::Lw {
            rt: Reg::T0,
            base: Reg::ZERO,
            imm: 0, // vaddr 0 — unmapped user page -> UTLB miss
        })];
        for (i, w) in insts.iter().enumerate() {
            m.mem_mut().write_u32(0x2000 + 4 * i as u32, *w).unwrap();
        }
        m.cp0_mut().status = status::KUC; // user mode
        m.set_pc(0x0040_0000);
        m.run(1).unwrap();
        assert_eq!(m.cp0().exc_code(), Some(ExcCode::TlbLoad));
        assert_eq!(
            m.cpu().pc,
            UTLB_VECTOR,
            "user TLB miss uses the refill vector"
        );
        assert!(!m.cp0().user_mode(), "exception enters kernel mode");
    }

    #[test]
    fn write_protected_page_faults_tlbmod() {
        let mut m = Machine::new(1 << 20);
        m.tlb_mut().write(
            0,
            crate::tlb::TlbEntry {
                vpn: 0x400,
                asid: 0,
                pfn: 2,
                valid: true,
                dirty: false, // write-protected
                global: false,
                user_modifiable: false,
            },
        );
        let insts = [encode(Instruction::Sw {
            rt: Reg::T0,
            base: Reg::ZERO,
            imm: 0x0040_0000u32 as i32 as i16, // won't fit; use register form below
        })];
        let _ = insts;
        // Build: lui t0, 0x0040; sw t1, 0(t0)
        let prog = [
            encode(Instruction::Lui {
                rt: Reg::T0,
                imm: 0x0040,
            }),
            encode(Instruction::Sw {
                rt: Reg::T1,
                base: Reg::T0,
                imm: 0,
            }),
        ];
        let paddr = 0x3000;
        for (i, w) in prog.iter().enumerate() {
            m.mem_mut().write_u32(paddr + 4 * i as u32, *w).unwrap();
        }
        // Map the code page too (vpn 0x401 -> pfn 3).
        m.tlb_mut().write(
            1,
            crate::tlb::TlbEntry {
                vpn: 0x401,
                asid: 0,
                pfn: 3,
                valid: true,
                dirty: false,
                global: false,
                user_modifiable: false,
            },
        );
        m.cp0_mut().status = status::KUC;
        m.set_pc(0x0040_1000);
        m.run(2).unwrap();
        assert_eq!(m.cp0().exc_code(), Some(ExcCode::TlbMod));
        assert_eq!(m.cp0().bad_vaddr, 0x0040_0000);
    }

    #[test]
    fn hardware_user_vectoring_swaps_pc_and_uxt() {
        let mut m = Machine::new(1 << 20);
        // user code page: vpn 0x400 -> pfn 2; handler page vpn 0x500 -> pfn 5.
        for (i, (vpn, pfn)) in [(0x400u32, 2u32), (0x500, 5)].iter().enumerate() {
            m.tlb_mut().write(
                i,
                crate::tlb::TlbEntry {
                    vpn: *vpn,
                    asid: 0,
                    pfn: *pfn,
                    valid: true,
                    dirty: true,
                    global: false,
                    user_modifiable: false,
                },
            );
        }
        // user code: break (vectored to user); then hcall (never reached in user mode)
        m.mem_mut()
            .write_u32(0x2000, encode(Instruction::Break { code: 0 }))
            .unwrap();
        m.mem_mut()
            .write_u32(
                0x2004,
                encode(Instruction::Addiu {
                    rt: Reg::T5,
                    rs: Reg::ZERO,
                    imm: 7,
                }),
            )
            .unwrap();
        m.mem_mut()
            .write_u32(0x2008, encode(Instruction::Break { code: 1 }))
            .unwrap();
        // handler at 0x0050_0000: set t3 = 1; advance uxt past the break; xpcu back.
        let handler = [
            encode(Instruction::Addiu {
                rt: Reg::T3,
                rs: Reg::ZERO,
                imm: 1,
            }),
            encode(Instruction::Mfc0 {
                rt: Reg::T4,
                rd: Cp0Reg::Uxt as u8,
            }),
            encode(Instruction::Addiu {
                rt: Reg::T4,
                rs: Reg::T4,
                imm: 4,
            }),
            encode(Instruction::Mtc0 {
                rt: Reg::T4,
                rd: Cp0Reg::Uxt as u8,
            }),
            encode(Instruction::Xpcu),
        ];
        for (i, w) in handler.iter().enumerate() {
            m.mem_mut().write_u32(0x5000 + 4 * i as u32, *w).unwrap();
        }
        m.cp0_mut().status = status::KUC | status::UXE;
        m.cp0_mut().uxm = 1 << ExcCode::Breakpoint.code();
        m.cp0_mut().uxt = 0x0050_0000;
        m.set_pc(0x0040_0000);
        // Run until the second break vectors (mask still set but UXA cleared
        // by xpcu, so it vectors to user again; we stop after a few steps).
        for _ in 0..8 {
            m.step().unwrap();
        }
        assert_eq!(m.cpu().reg(Reg::T3), 1, "handler ran");
        assert_eq!(m.cpu().reg(Reg::T5), 7, "resumed after the break");
        assert!(m.cp0().user_mode(), "never left user mode");
    }

    #[test]
    fn recursive_user_exception_falls_back_to_kernel() {
        let mut m = Machine::new(1 << 20);
        m.tlb_mut().write(
            0,
            crate::tlb::TlbEntry {
                vpn: 0x400,
                asid: 0,
                pfn: 2,
                valid: true,
                dirty: true,
                global: false,
                user_modifiable: false,
            },
        );
        // user code: break; handler is ALSO a break at the same spot (uxt
        // points at code that faults again).
        m.mem_mut()
            .write_u32(0x2000, encode(Instruction::Break { code: 0 }))
            .unwrap();
        m.mem_mut()
            .write_u32(0x2010, encode(Instruction::Break { code: 1 }))
            .unwrap();
        m.cp0_mut().status = status::KUC | status::UXE;
        m.cp0_mut().uxm = 1 << ExcCode::Breakpoint.code();
        m.cp0_mut().uxt = 0x0040_0010;
        m.set_pc(0x0040_0000);
        m.step().unwrap(); // first break: user-vectored
        assert!(m.cp0().status & status::UXA != 0);
        m.step().unwrap(); // second break: recursive -> kernel
        assert!(
            !m.cp0().user_mode(),
            "recursive exception must enter kernel"
        );
        assert_eq!(m.cpu().pc, GENERAL_VECTOR);
    }

    #[test]
    fn utlbp_requires_user_modifiable_bit() {
        let mut m = Machine::new(1 << 20);
        m.tlb_mut().write(
            0,
            crate::tlb::TlbEntry {
                vpn: 0x400,
                asid: 0,
                pfn: 2,
                valid: true,
                dirty: true,
                global: false,
                user_modifiable: false,
            },
        );
        // code page
        m.tlb_mut().write(
            1,
            crate::tlb::TlbEntry {
                vpn: 0x401,
                asid: 0,
                pfn: 3,
                valid: true,
                dirty: false,
                global: false,
                user_modifiable: false,
            },
        );
        let prog = [
            encode(Instruction::Lui {
                rt: Reg::A0,
                imm: 0x0040,
            }),
            encode(Instruction::Utlbp {
                rs: Reg::A0,
                op: TlbProtOp::WriteProtect,
            }),
        ];
        for (i, w) in prog.iter().enumerate() {
            m.mem_mut().write_u32(0x3000 + 4 * i as u32, *w).unwrap();
        }
        m.cp0_mut().status = status::KUC;
        m.set_pc(0x0040_1000);
        m.run(2).unwrap();
        assert_eq!(m.cp0().exc_code(), Some(ExcCode::CopUnusable));
    }

    #[test]
    fn utlbp_with_bit_set_modifies_protection() {
        let mut m = Machine::new(1 << 20);
        m.tlb_mut().write(
            0,
            crate::tlb::TlbEntry {
                vpn: 0x400,
                asid: 0,
                pfn: 2,
                valid: true,
                dirty: true,
                global: false,
                user_modifiable: true,
            },
        );
        m.tlb_mut().write(
            1,
            crate::tlb::TlbEntry {
                vpn: 0x401,
                asid: 0,
                pfn: 3,
                valid: true,
                dirty: false,
                global: false,
                user_modifiable: false,
            },
        );
        let prog = [
            encode(Instruction::Lui {
                rt: Reg::A0,
                imm: 0x0040,
            }),
            encode(Instruction::Utlbp {
                rs: Reg::A0,
                op: TlbProtOp::WriteProtect,
            }),
            encode(Instruction::Sw {
                rt: Reg::T0,
                base: Reg::A0,
                imm: 0,
            }),
        ];
        for (i, w) in prog.iter().enumerate() {
            m.mem_mut().write_u32(0x3000 + 4 * i as u32, *w).unwrap();
        }
        m.cp0_mut().status = status::KUC;
        m.set_pc(0x0040_1000);
        m.run(3).unwrap();
        // The store after user-level write-protect must fault.
        assert_eq!(m.cp0().exc_code(), Some(ExcCode::TlbMod));
    }

    #[test]
    fn hcall_is_privileged() {
        let mut m = Machine::new(1 << 20);
        m.tlb_mut().write(
            0,
            crate::tlb::TlbEntry {
                vpn: 0x400,
                asid: 0,
                pfn: 2,
                valid: true,
                dirty: false,
                global: false,
                user_modifiable: false,
            },
        );
        m.mem_mut()
            .write_u32(0x2000, encode(Instruction::Hcall { code: 0 }))
            .unwrap();
        m.cp0_mut().status = status::KUC;
        m.set_pc(0x0040_0000);
        let r = m.run(1).unwrap();
        assert_eq!(r, StopReason::StepLimit, "hcall must not stop in user mode");
        assert_eq!(m.cp0().exc_code(), Some(ExcCode::CopUnusable));
    }

    #[test]
    fn peek_poke_respect_translation() {
        let mut m = Machine::new(1 << 20);
        m.tlb_mut().write(
            0,
            crate::tlb::TlbEntry {
                vpn: 0x400,
                asid: 0,
                pfn: 2,
                valid: true,
                dirty: true,
                global: false,
                user_modifiable: false,
            },
        );
        m.poke_u32(0x0040_0008, 0xfeed_f00d, true).unwrap();
        assert_eq!(m.peek_u32(0x0040_0008, true).unwrap(), 0xfeed_f00d);
        assert_eq!(m.mem().read_u32(0x2008).unwrap(), 0xfeed_f00d);
        let err = m.peek_u32(0x0050_0000, true).unwrap_err();
        assert_eq!(err.code, ExcCode::TlbLoad);
    }
}
