//! Symbolic whole-image exploration of the exception delivery path.
//!
//! The abstract interpreter in [`crate::analyze`] proves per-image,
//! path-insensitive facts. This module is the path-*sensitive* layer: it
//! symbolically executes the **composed** system — kernel vector +
//! trampoline + registered guest handler, stitched together by
//! [`Images`] — once per *(exception class ×
//! delivery variant)*, enumerating every reachable path from the hardware
//! raise to the resume of user code.
//!
//! The machine state is abstract where it must be and concrete where it
//! can be:
//!
//! - **registers** carry a small symbolic value domain ([`SymVal`]):
//!   partially-known bit patterns, or opaque tokens ([`Token`]) for the
//!   user's original register values, `EPC`, `BadVaddr`, `Cause`, the
//!   comm-page base, and the host-built sigcontext pointer — each with a
//!   known byte offset, so pointer arithmetic stays precise;
//! - **memory** is a word lattice keyed three ways: canonical comm-page
//!   offsets (both the user mapping and the kernel kseg0 alias normalize to
//!   the same key, so aliasing is exact), concrete addresses, and
//!   (token, offset) pairs for symbolic bases such as the user stack;
//! - **control flow** folds branches whose conditions are known (via
//!   [`efex_mips::sem`]), forks on the rest, resolves `jal`/`jr` through a
//!   shadow call stack, and treats host calls as cost intervals with their
//!   architecturally specified side effects (UTLB refill and retry or
//!   re-raise, signal-trampoline setup, `sigreturn`). No host call writes
//!   the comm frame: the guest save phase is its only writer.
//!
//! Along every path the explorer checks the paper's protocol invariants —
//! save/restore comm-slot pairing, no read of an undefined comm word,
//! recursive-exception windows confined to the documented ones, refill
//! termination — and accumulates exact cycle counts (plus host-side slack),
//! yielding per-scenario static `[min, max]` bounds that the `lint` binary
//! cross-checks against the dynamic Table 2 numbers in the recorded
//! baseline.

use std::collections::{BTreeMap, BTreeSet};

use efex_mips::cp0::{cause, status, Cp0Reg};
use efex_mips::cycles::static_cost;
use efex_mips::exception::ExcCode;
use efex_mips::isa::{Instruction, Reg};
use efex_mips::sem::{self, branch_target, jump_target};

use crate::diag::{Finding, Lint};
use crate::interproc::{CallGraph, Images};

// ---------------------------------------------------------------------------
// Value domain
// ---------------------------------------------------------------------------

/// Opaque symbolic quantities the explorer tracks by name rather than value.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Token {
    /// The user's register `r` at the instant the exception was raised.
    Orig(Reg),
    /// The faulting program counter (CP0 `EPC`).
    Epc,
    /// The faulting virtual address (CP0 `BadVaddr`).
    BadVaddr,
    /// The full CP0 `Cause` word (the ExcCode field *is* known per
    /// scenario; the token form survives stores so state-saving can be
    /// recognized).
    Cause,
    /// The comm-page kseg0 alias when registration metadata leaves it
    /// unknown (kernel-image-only exploration).
    CommBase,
    /// The registered handler entry when registration metadata leaves it
    /// unknown.
    Handler,
    /// The sigcontext pointer the host builds for standard-path delivery.
    SigCtx,
}

/// An abstract register or memory word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SymVal {
    /// A partially known bit pattern: bit `i` equals `val` bit `i` wherever
    /// `mask` bit `i` is set; unknown elsewhere. `mask == u32::MAX` is a
    /// constant. Unknown `val` bits are normalized to zero.
    Bits {
        /// The known bit values (zero where unknown).
        val: u32,
        /// Which bits of `val` are known.
        mask: u32,
    },
    /// An opaque token plus a known byte offset.
    Sym(Token, i32),
    /// Completely unknown.
    Top,
}

impl SymVal {
    /// A fully known constant.
    pub fn known(v: u32) -> SymVal {
        SymVal::Bits {
            val: v,
            mask: u32::MAX,
        }
    }

    /// A bare token.
    pub fn tok(t: Token) -> SymVal {
        SymVal::Sym(t, 0)
    }

    /// The concrete value, when fully known.
    pub fn as_const(self) -> Option<u32> {
        match self {
            SymVal::Bits { val, mask } if mask == u32::MAX => Some(val),
            _ => None,
        }
    }
}

/// The symbolic value of the `Cause` register for `class`: the ExcCode
/// field (bits 2..=6) and the reserved low bits are known, the
/// branch-delay and interrupt-pending bits are not.
fn cause_bits(class: ExcCode) -> SymVal {
    let known = (cause::EXC_MASK << cause::EXC_SHIFT) | 0x3;
    SymVal::Bits {
        val: class.code() << cause::EXC_SHIFT,
        mask: known,
    }
}

/// Status at exception entry from user mode: KUc = 0 (kernel), KUp = 1
/// (came from user); everything else unknown.
fn status_bits() -> SymVal {
    SymVal::Bits {
        val: status::KUP,
        mask: status::KUP | status::KUC,
    }
}

/// Folds an ALU instruction over symbolic operands. `a` is the `rs`
/// (or `base`) operand, `b` the `rt` operand.
fn eval_alu(inst: Instruction, a: SymVal, b: SymVal) -> SymVal {
    use Instruction::*;
    // Fully concrete: defer to the interpreter's own semantics.
    if let (Some(ca), Some(cb)) = (concrete(a), concrete(b)) {
        if let Some(r) = sem::alu_result(inst, ca, cb) {
            return SymVal::known(r);
        }
    }
    match inst {
        // Token ± known offset keeps the token.
        Addi { imm, .. } | Addiu { imm, .. } => match a {
            SymVal::Sym(t, off) => SymVal::Sym(t, off.wrapping_add(imm as i32)),
            SymVal::Bits { .. } | SymVal::Top => bits_binop(inst, a, b),
        },
        Addu { .. } => match (a, b) {
            (SymVal::Sym(t, off), other) | (other, SymVal::Sym(t, off)) => match other.as_const() {
                Some(c) => SymVal::Sym(t, off.wrapping_add(c as i32)),
                None => SymVal::Top,
            },
            _ => bits_binop(inst, a, b),
        },
        Subu { .. } => match (a, b) {
            (SymVal::Sym(t, off), other) => match other.as_const() {
                Some(c) => SymVal::Sym(t, off.wrapping_sub(c as i32)),
                None => match b {
                    SymVal::Sym(t2, off2) if t2 == t => {
                        SymVal::known((off.wrapping_sub(off2)) as u32)
                    }
                    _ => SymVal::Top,
                },
            },
            _ => bits_binop(inst, a, b),
        },
        // `or rd, rs, $zero` (the `move` idiom) copies symbolically.
        Or { .. } => match (a.as_const(), b.as_const()) {
            (Some(0), _) => b,
            (_, Some(0)) => a,
            _ => bits_binop(inst, a, b),
        },
        _ => bits_binop(inst, a, b),
    }
}

/// The address a load or store reaches: its base register plus offset,
/// folded like an `addiu`.
fn effective_addr(p: &Path, a: sem::MemAccess) -> SymVal {
    let addiu = Instruction::Addiu {
        rt: Reg::ZERO,
        rs: Reg::ZERO,
        imm: a.imm,
    };
    eval_alu(addiu, p.reg(a.base), SymVal::known(0))
}

fn concrete(v: SymVal) -> Option<u32> {
    v.as_const()
}

fn as_bits(v: SymVal) -> Option<(u32, u32)> {
    match v {
        SymVal::Bits { val, mask } => Some((val, mask)),
        _ => None,
    }
}

/// Bit-level partial evaluation for the operations the delivery path uses
/// on partially known words (`Cause`, `Status`, loaded mask words).
fn bits_binop(inst: Instruction, a: SymVal, b: SymVal) -> SymVal {
    use Instruction::*;
    match inst {
        Andi { imm, .. } => {
            let imm = imm as u32;
            if let Some((val, mask)) = as_bits(a) {
                let known = mask | !imm;
                let v = val & imm & known;
                norm_bits(v, known)
            } else {
                // Unknown & imm still pins every bit cleared by imm to 0.
                norm_bits(0, !imm)
            }
        }
        Ori { imm, .. } => {
            let imm = imm as u32;
            if let Some((val, mask)) = as_bits(a) {
                let known = mask | imm;
                norm_bits((val | imm) & known, known)
            } else {
                norm_bits(imm, imm)
            }
        }
        Xori { imm, .. } => match as_bits(a) {
            Some((val, mask)) => norm_bits((val ^ imm as u32) & mask, mask),
            None => SymVal::Top,
        },
        Srl { shamt, .. } => shift_right(b, shamt as u32),
        Sra { shamt, .. } => shift_right_arith(b, shamt as u32),
        Sll { shamt, .. } => match as_bits(b) {
            Some((val, mask)) => {
                let k = shamt as u32;
                norm_bits(val << k, (mask << k) | low_ones(k))
            }
            None => {
                let k = shamt as u32;
                norm_bits(0, low_ones(k))
            }
        },
        Srlv { .. } => match concrete(a) {
            Some(k) => shift_right(b, k & 31),
            None => SymVal::Top,
        },
        Sllv { .. } => match concrete(a) {
            Some(k) => bits_binop(
                Sll {
                    rd: Reg::ZERO,
                    rt: Reg::ZERO,
                    shamt: (k & 31) as u8,
                },
                a,
                b,
            ),
            None => SymVal::Top,
        },
        _ => SymVal::Top,
    }
}

fn norm_bits(val: u32, mask: u32) -> SymVal {
    SymVal::Bits {
        val: val & mask,
        mask,
    }
}

fn low_ones(k: u32) -> u32 {
    if k == 0 {
        0
    } else {
        u32::MAX >> (32 - k)
    }
}

fn shift_right(v: SymVal, k: u32) -> SymVal {
    match as_bits(v) {
        Some((val, mask)) => norm_bits(val >> k, (mask >> k) | high_known(k)),
        None => high_known_bits(k),
    }
}

/// After a logical right shift by `k`, the top `k` bits are known zero.
fn high_known(k: u32) -> u32 {
    if k == 0 {
        0
    } else {
        !(u32::MAX >> k)
    }
}

fn high_known_bits(k: u32) -> SymVal {
    norm_bits(0, high_known(k))
}

fn shift_right_arith(v: SymVal, k: u32) -> SymVal {
    match as_bits(v) {
        Some((val, mask)) => norm_bits(((val as i32) >> k) as u32, ((mask as i32) >> k) as u32),
        None => SymVal::Top,
    }
}

/// Whether a conditional branch is taken: `Some` when decidable from the
/// symbolic operands, `None` to fork.
fn branch_decision(inst: Instruction, a: SymVal, b: SymVal) -> Option<bool> {
    use Instruction::*;
    if let (Some(ca), Some(cb)) = (concrete(a), concrete(b)) {
        return sem::branch_taken(inst, ca, cb);
    }
    match inst {
        Beq { .. } | Bne { .. } => {
            let eq = match (a, b) {
                (SymVal::Sym(t1, o1), SymVal::Sym(t2, o2)) if t1 == t2 => Some(o1 == o2),
                _ => {
                    // Known bits that disagree prove inequality.
                    let (av, am) = as_bits(a)?;
                    let (bv, bm) = as_bits(b)?;
                    let both = am & bm;
                    if (av ^ bv) & both != 0 {
                        Some(false)
                    } else {
                        None
                    }
                }
            }?;
            Some(if matches!(inst, Beq { .. }) { eq } else { !eq })
        }
        Bltz { .. } | Bltzal { .. } | Bgez { .. } | Bgezal { .. } => {
            let (val, mask) = as_bits(a)?;
            if mask & 0x8000_0000 == 0 {
                return None;
            }
            let neg = val & 0x8000_0000 != 0;
            Some(if matches!(inst, Bltz { .. } | Bltzal { .. }) {
                neg
            } else {
                !neg
            })
        }
        Blez { .. } | Bgtz { .. } => {
            let (val, mask) = as_bits(a)?;
            if mask & 0x8000_0000 != 0 && val & 0x8000_0000 != 0 {
                // Known negative.
                return Some(matches!(inst, Blez { .. }));
            }
            None
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Model of one u-area word the kernel reads during delivery.
#[derive(Clone, Copy, Debug)]
pub enum UareaWord {
    /// The registration gave this word a concrete value.
    Known(u32),
    /// The comm-page kseg0 alias slot (concrete when registration metadata
    /// is available, [`Token::CommBase`] otherwise).
    CommBase,
    /// The registered-handler slot (concrete when available,
    /// [`Token::Handler`] otherwise).
    Handler,
    /// Unconstrained.
    Unknown,
}

/// Model of the per-process u-area the kernel consults on the fast path.
#[derive(Clone, Debug)]
pub struct UareaModel {
    /// Base virtual address (kseg0).
    pub base: u32,
    /// Length in bytes.
    pub len: u32,
    /// Word models by offset; absent offsets read as unknown.
    pub words: BTreeMap<u32, UareaWord>,
}

/// Model of the pinned communication page and its save-slot protocol.
#[derive(Clone, Debug)]
pub struct CommModel {
    /// User-space virtual address of the page.
    pub user_base: u32,
    /// Kernel kseg0 alias, when registration metadata pins it.
    pub kseg0_base: Option<u32>,
    /// Page length in bytes.
    pub page_len: u32,
    /// Bytes per per-class frame.
    pub frame_size: u32,
    /// Frame-relative offset of the saved-EPC word.
    pub epc_slot: u32,
    /// `(frame-relative offset, owning register)` for each protocol save
    /// slot: the canonical slot assignment of Section 3.2.1.
    pub slot_owners: Vec<(u32, Reg)>,
}

/// Host-side cost intervals (from `efex-simos`'s calibrated cost table)
/// and standard-path continuation metadata.
#[derive(Clone, Debug)]
pub struct HostModel {
    /// Cycles for the host's UTLB refill work, whether it installs a
    /// mapping or re-raises the fault.
    pub refill_cycles: u64,
    /// `[lo, hi]` cycles for the fast TLB-exception host work (`hcall 2`).
    pub fast_tlb: (u64, u64),
    /// `[lo, hi]` cycles for standard (Unix signal) delivery (`hcall 1`).
    pub standard: (u64, u64),
    /// Extra standard-path cycles for TLB-class faults (VM fault work).
    pub standard_tlb_extra: u64,
    /// `[lo, hi]` cycles for `sigreturn`.
    pub sigreturn: (u64, u64),
    /// `[lo, hi]` cycles for other syscalls reached during exploration.
    pub other_syscall: (u64, u64),
    /// Where standard delivery resumes: the signal trampoline plus the
    /// registered signal handler. `None` stops standard paths at the host
    /// boundary.
    pub standard_resume: Option<StandardResume>,
}

/// Standard-path continuation: the host builds a sigcontext and restarts
/// user code in the trampoline with the handler in `$t9`.
#[derive(Clone, Copy, Debug)]
pub struct StandardResume {
    /// Trampoline entry address.
    pub trampoline_entry: u32,
    /// Registered signal-handler address (placed in `$t9`).
    pub handler: u32,
    /// Sigcontext offset of the saved PC (read back by `sigreturn`).
    pub sigctx_pc_off: i32,
}

/// Everything the explorer needs to know about the composed system that is
/// not in the images themselves.
#[derive(Clone, Debug)]
pub struct SymexConfig {
    /// General exception vector address.
    pub general_vector: u32,
    /// UTLB refill vector address, when the image has one.
    pub utlb_vector: Option<u32>,
    /// Hardware cycles from raise to first vector instruction.
    pub exception_entry_cycles: u64,
    /// Hardware cycles for user-level vectoring (the PC/UXT exchange).
    pub user_vector_entry_cycles: u64,
    /// The u-area model.
    pub uarea: UareaModel,
    /// The comm-page model.
    pub comm: CommModel,
    /// Registered guest handler entry, when registration metadata is
    /// available; `None` explores the kernel image alone.
    pub handler: Option<u32>,
    /// Registers the protocol obliges the kernel to save before vectoring.
    pub protocol_saved: Vec<Reg>,
    /// Documented recursive-exception-vulnerable windows, as half-open
    /// `[start, end)` address ranges.
    pub documented_windows: Vec<(u32, u32)>,
    /// Host-side cost intervals and continuation metadata.
    pub host: HostModel,
    /// Refill re-raises tolerated before declaring divergence.
    pub max_refills: u32,
    /// Per-path revisit bound per address (loop unrolling limit).
    pub unroll_limit: u32,
    /// Fork-explosion bound per scenario.
    pub max_paths: usize,
}

/// How the exception is raised and retried.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeliveryVariant {
    /// The mapping is present: the fault vectors directly.
    Direct,
    /// The TLB entry was evicted: UTLB refill first, then the real fault —
    /// raised by the retried access (TLB modification) or re-raised by the
    /// host when the refill cannot map the page (TLB load or store).
    Refill,
}

impl DeliveryVariant {
    /// Stable label used in scenario names.
    pub fn label(self) -> &'static str {
        match self {
            DeliveryVariant::Direct => "direct",
            DeliveryVariant::Refill => "refill",
        }
    }
}

/// Where the raise enters the system.
#[derive(Clone, Copy, Debug)]
pub enum EntryKind {
    /// Through the kernel's general (or UTLB) vector.
    KernelVector,
    /// Hardware user-level vectoring straight into the handler.
    UserVectored {
        /// Re-entry address (the instruction after the warm handler's
        /// `xpcu`).
        entry: u32,
    },
}

/// How deep to follow the path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Depth {
    /// Through the guest handler to the user resume.
    Deep,
    /// Stop when control would leave the kernel image (classes the
    /// composition never raises; their handler contract is untestable).
    KernelOnly,
}

/// One (class × variant) exploration request.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario label for reports (e.g. `fast-user/breakpoint/direct`).
    pub label: String,
    /// The exception class raised.
    pub class: ExcCode,
    /// Direct or refill-then-retry delivery.
    pub variant: DeliveryVariant,
    /// Kernel vector or hardware user-level vectoring.
    pub entry: EntryKind,
    /// Deep (through the handler) or kernel-only.
    pub depth: Depth,
    /// Static cost of the faulting instruction (charged at raise and on
    /// retry).
    pub fault_cost: u64,
    /// Address whose first crossing ends the *deliver* span (the paper's
    /// t₁: handler entry).
    pub measure_to: Option<u32>,
    /// Address whose first crossing starts the *return* span (the paper's
    /// t₂: handler completion).
    pub measure_return_from: Option<u32>,
    /// Whether the resume's retried access may take a refill excursion
    /// (protection handlers invalidate the TLB entry when they amplify).
    pub return_may_refill: bool,
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// How one explored path ended.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Terminal {
    /// Resumed user code at/after the faulting instruction.
    ResumeUser,
    /// Reached the registered handler boundary (kernel-only depth).
    ToHandler,
    /// Host completed delivery at the fast-TLB boundary (kernel-only
    /// depth).
    HostCompleted,
    /// Left for the standard Unix path with no modeled continuation.
    StandardPath,
    /// The program exited.
    Halt,
    /// Raised a nested exception from user mode (a `break` in the
    /// handler).
    NestedRaise,
    /// Abandoned after a finding (unresolved jump, divergence, …).
    Cut,
}

/// Per-scenario exploration outcome.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Scenario label.
    pub label: String,
    /// Exception class explored.
    pub class: ExcCode,
    /// Delivery variant explored.
    pub variant: DeliveryVariant,
    /// Paths fully explored.
    pub paths: usize,
    /// Terminal census.
    pub terminals: BTreeMap<Terminal, usize>,
    /// `[min, max]` cycles raise → handler entry, over paths that crossed
    /// the deliver mark.
    pub deliver: Option<(u64, u64)>,
    /// `[min, max]` cycles handler completion → user resume.
    pub ret: Option<(u64, u64)>,
    /// Highest address at which CP0 exception state was still live on some
    /// path (end of the computed vulnerable window).
    pub live_window_end: Option<u32>,
    /// Whether any path reached a handler terminal.
    pub reached: bool,
}

/// The symbolic pass's report: findings plus per-scenario facts.
#[derive(Clone, Debug, Default)]
pub struct SymexReport {
    /// Deduplicated findings across all scenarios.
    pub findings: Vec<Finding>,
    /// Per-scenario outcomes in request order.
    pub scenarios: Vec<ScenarioOutcome>,
    /// Functions discovered by the static call graph.
    pub callgraph_functions: usize,
    /// Longest acyclic call chain.
    pub callgraph_depth: usize,
    /// Total paths explored.
    pub paths_explored: usize,
}

impl SymexReport {
    /// True when no finding was produced.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The outcome with the given label, if explored.
    pub fn scenario(&self, label: &str) -> Option<&ScenarioOutcome> {
        self.scenarios.iter().find(|s| s.label == label)
    }
}

// ---------------------------------------------------------------------------
// Path state
// ---------------------------------------------------------------------------

/// Where a resolved memory access lands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Place {
    Comm(u32),
    Uarea(u32),
    Abs(u32),
    Rel(Token, i32),
    Unknown,
}

#[derive(Clone, Debug, Default)]
struct SymMem {
    comm: BTreeMap<u32, SymVal>,
    abs: BTreeMap<u32, SymVal>,
    rel: BTreeMap<(Token, i32), SymVal>,
    /// A store went to an unresolvable address: subsequent reads are
    /// unconstrained and undefined-read findings are suppressed.
    hazy: bool,
}

#[derive(Clone, Debug)]
struct Path {
    pc: u32,
    regs: [SymVal; 32],
    cp0: BTreeMap<u8, SymVal>,
    mem: SymMem,
    lo: u64,
    hi: u64,
    mode_user: bool,
    cur_class: ExcCode,
    /// EPC/Cause/BadVaddr saved-to-memory flags.
    saved_epc: bool,
    saved_cause: bool,
    saved_badvaddr: bool,
    /// Protocol registers saved to their comm slots (by guest or host).
    saved_regs: BTreeSet<Reg>,
    /// reg → (comm offset, load address) for values live from a comm load.
    restored_from: BTreeMap<Reg, (u32, u32)>,
    visits: BTreeMap<u32, u32>,
    call_stack: Vec<u32>,
    refills: u32,
    deliver_mark: Option<(u64, u64)>,
    ret_mark: Option<(u64, u64)>,
    /// Highest kernel-mode pc executed while CP0 state was live.
    live_end: Option<u32>,
}

impl Path {
    fn charge(&mut self, lo: u64, hi: u64) {
        self.lo += lo;
        self.hi += hi;
    }

    fn reg(&self, r: Reg) -> SymVal {
        if r == Reg::ZERO {
            SymVal::known(0)
        } else {
            self.regs[r.number() as usize]
        }
    }

    fn set_reg(&mut self, r: Reg, v: SymVal) {
        if r != Reg::ZERO {
            self.regs[r.number() as usize] = v;
            self.restored_from.remove(&r);
        }
    }

    fn cp0_live(&self) -> bool {
        !(self.saved_epc && self.saved_cause && self.saved_badvaddr)
    }
}

// ---------------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------------

/// Runs the symbolic pass over `images` for every scenario, preceded by a
/// static call-graph sweep from the vector and handler roots.
pub fn explore(images: &Images<'_>, config: &SymexConfig, scenarios: &[Scenario]) -> SymexReport {
    let mut roots = vec![config.general_vector];
    if let Some(v) = config.utlb_vector {
        roots.push(v);
    }
    if let Some(h) = config.handler {
        roots.push(h);
    }
    let graph = CallGraph::build(images, &roots);
    let mut report = SymexReport {
        callgraph_functions: graph.functions.len(),
        callgraph_depth: graph.max_depth,
        ..SymexReport::default()
    };
    let mut findings = graph.recursion_findings(images);

    for scenario in scenarios {
        let mut engine = Engine {
            images,
            config,
            scenario,
            findings: Vec::new(),
            outcome: ScenarioOutcome {
                label: scenario.label.clone(),
                class: scenario.class,
                variant: scenario.variant,
                paths: 0,
                terminals: BTreeMap::new(),
                deliver: None,
                ret: None,
                live_window_end: None,
                reached: false,
            },
            work: Vec::new(),
        };
        engine.run();
        if !engine.outcome.reached {
            findings.push(images.finding(
                Lint::ClassUnreachable,
                config.general_vector,
                format!(
                    "exception class {:?} never reaches a handler terminal in scenario {}",
                    scenario.class, scenario.label
                ),
            ));
        }
        report.paths_explored += engine.outcome.paths;
        findings.append(&mut engine.findings);
        report.scenarios.push(engine.outcome);
    }

    // One finding per (address, lint) across the whole pass.
    let mut seen = BTreeSet::new();
    findings.retain(|f| seen.insert((f.addr, f.lint)));
    findings.sort_by_key(|f| f.addr);
    report.findings = findings;
    report
}

struct Engine<'a> {
    images: &'a Images<'a>,
    config: &'a SymexConfig,
    scenario: &'a Scenario,
    findings: Vec<Finding>,
    outcome: ScenarioOutcome,
    work: Vec<Path>,
}

enum Step {
    Continue,
    Terminal(Terminal),
}

impl<'a> Engine<'a> {
    fn run(&mut self) {
        let initial = self.initial_path();
        self.work.push(initial);
        while let Some(mut p) = self.work.pop() {
            if self.outcome.paths >= self.scenario_max_paths() {
                self.finding(
                    Lint::UnboundedPath,
                    p.pc,
                    format!(
                        "scenario {} exceeded {} explored paths; state space is not converging",
                        self.scenario.label,
                        self.scenario_max_paths()
                    ),
                );
                self.work.clear();
                break;
            }
            let terminal = loop {
                match self.step(&mut p) {
                    Step::Continue => continue,
                    Step::Terminal(t) => break t,
                }
            };
            self.outcome.paths += 1;
            *self.outcome.terminals.entry(terminal).or_insert(0) += 1;
            if matches!(
                terminal,
                Terminal::ResumeUser
                    | Terminal::ToHandler
                    | Terminal::HostCompleted
                    | Terminal::StandardPath
            ) {
                self.outcome.reached = true;
            }
            if let Some(end) = p.live_end {
                let cur = self.outcome.live_window_end.unwrap_or(0);
                self.outcome.live_window_end = Some(cur.max(end));
            }
            if let Some((dlo, dhi)) = p.deliver_mark {
                merge_span(&mut self.outcome.deliver, dlo, dhi);
            }
        }
    }

    fn scenario_max_paths(&self) -> usize {
        self.config.max_paths
    }

    fn initial_path(&self) -> Path {
        let mut regs = [SymVal::Top; 32];
        for r in Reg::all() {
            regs[r.number() as usize] = SymVal::tok(Token::Orig(r));
        }
        regs[0] = SymVal::known(0);
        let mut cp0 = BTreeMap::new();
        cp0.insert(Cp0Reg::Epc as u8, SymVal::tok(Token::Epc));
        cp0.insert(Cp0Reg::BadVaddr as u8, SymVal::tok(Token::BadVaddr));
        cp0.insert(Cp0Reg::Cause as u8, cause_bits(self.scenario.class));
        cp0.insert(Cp0Reg::Status as u8, status_bits());
        let mut p = Path {
            pc: 0,
            regs,
            cp0,
            mem: SymMem::default(),
            lo: 0,
            hi: 0,
            mode_user: false,
            cur_class: self.scenario.class,
            saved_epc: false,
            saved_cause: false,
            saved_badvaddr: false,
            saved_regs: BTreeSet::new(),
            restored_from: BTreeMap::new(),
            visits: BTreeMap::new(),
            call_stack: Vec::new(),
            refills: 0,
            deliver_mark: None,
            ret_mark: None,
            live_end: None,
        };
        p.charge(self.scenario.fault_cost, self.scenario.fault_cost);
        match self.scenario.entry {
            EntryKind::KernelVector => {
                let entry = self.config.exception_entry_cycles;
                p.charge(entry, entry);
                p.pc = match self.scenario.variant {
                    DeliveryVariant::Direct => self.config.general_vector,
                    DeliveryVariant::Refill => self
                        .config
                        .utlb_vector
                        .unwrap_or(self.config.general_vector),
                };
            }
            EntryKind::UserVectored { entry } => {
                let cost = self.config.user_vector_entry_cycles;
                p.charge(cost, cost);
                p.mode_user = true;
                // The hardware exchange leaves the faulting PC in UXT.
                p.cp0.insert(Cp0Reg::Uxt as u8, SymVal::tok(Token::Epc));
                // Hardware vectoring never exposes kernel CP0 state.
                p.saved_epc = true;
                p.saved_cause = true;
                p.saved_badvaddr = true;
                p.pc = entry;
            }
        }
        p
    }

    fn finding(&mut self, lint: Lint, addr: u32, message: impl Into<String>) {
        let message = format!("[{}] {}", self.scenario.label, message.into());
        self.findings.push(self.images.finding(lint, addr, message));
    }

    fn fetch(&mut self, _p: &Path, addr: u32) -> Option<Instruction> {
        match self.images.decode_at(addr) {
            Some(Some(inst)) => Some(inst),
            Some(None) => {
                self.finding(
                    Lint::Undecodable,
                    addr,
                    "symbolic execution reached a word that does not decode",
                );
                None
            }
            None => {
                self.finding(
                    Lint::RunsOffImage,
                    addr,
                    "symbolic execution ran past the end of every image",
                );
                None
            }
        }
    }

    /// Record measure-label crossings for the pc about to execute.
    fn cross(&mut self, p: &mut Path, pc: u32) {
        if Some(pc) == self.scenario.measure_to && p.deliver_mark.is_none() {
            p.deliver_mark = Some((p.lo, p.hi));
        }
        if Some(pc) == self.scenario.measure_return_from && p.ret_mark.is_none() {
            p.ret_mark = Some((p.lo, p.hi));
        }
    }

    fn step(&mut self, p: &mut Path) -> Step {
        let pc = p.pc;
        self.cross(p, pc);
        let visits = p.visits.entry(pc).or_insert(0);
        *visits += 1;
        if *visits > self.config.unroll_limit {
            self.finding(
                Lint::UnboundedPath,
                pc,
                format!(
                    "path revisits this instruction more than {} times; no static bound",
                    self.config.unroll_limit
                ),
            );
            return Step::Terminal(Terminal::Cut);
        }
        let Some(inst) = self.fetch(p, pc) else {
            return Step::Terminal(Terminal::Cut);
        };

        if inst.is_control_transfer() {
            return self.step_transfer(p, pc, inst);
        }

        let cost = static_cost(inst);
        p.charge(cost, cost);
        self.vulnerability_check(p, pc, inst);
        match inst {
            Instruction::Hcall { code } => self.host_call(p, pc, code),
            Instruction::Syscall { .. } => self.syscall(p, pc),
            Instruction::Break { .. } => {
                if p.mode_user {
                    Step::Terminal(Terminal::NestedRaise)
                } else {
                    // A kernel-mode break would re-enter the vector and
                    // destroy live state; the vulnerability check above
                    // reported it if outside a documented window.
                    Step::Terminal(Terminal::Cut)
                }
            }
            Instruction::Xpcu => {
                // Exchange PC with UXT: resume wherever UXT points.
                let target = p
                    .cp0
                    .get(&(Cp0Reg::Uxt as u8))
                    .copied()
                    .unwrap_or(SymVal::Top);
                self.resume_terminal(p, pc, target)
            }
            Instruction::Rfe => {
                // Outside a jr delay slot (the hazard lint flags misplaced
                // ones); pop the mode stack and continue.
                p.mode_user = true;
                p.pc = pc.wrapping_add(4);
                Step::Continue
            }
            _ => {
                self.exec_data(p, pc, inst);
                p.pc = pc.wrapping_add(4);
                Step::Continue
            }
        }
    }

    fn step_transfer(&mut self, p: &mut Path, pc: u32, inst: Instruction) -> Step {
        // Branch decisions and jump targets read pre-slot state.
        let decision = sem::branch_operands(inst).and_then(|(rs, rt, _)| {
            if rs == rt {
                sem::branch_taken(inst, 0, 0)
            } else {
                branch_decision(inst, p.reg(rs), p.reg(rt))
            }
        });
        let jr_target = match inst {
            Instruction::Jr { rs } | Instruction::Jalr { rs, .. } => Some(p.reg(rs)),
            _ => None,
        };

        // The delay slot executes before control transfers.
        let slot_pc = pc.wrapping_add(4);
        let Some(slot) = self.fetch(p, slot_pc) else {
            return Step::Terminal(Terminal::Cut);
        };
        if slot.is_control_transfer() {
            self.finding(
                Lint::BranchInDelaySlot,
                slot_pc,
                "control transfer in a delay slot; symbolic execution cannot continue",
            );
            return Step::Terminal(Terminal::Cut);
        }
        let cost = static_cost(inst) + static_cost(slot);
        p.charge(cost, cost);
        self.cross(p, slot_pc);
        self.vulnerability_check(p, pc, inst);
        self.vulnerability_check(p, slot_pc, slot);
        let slot_is_rfe = slot == Instruction::Rfe;
        if slot_is_rfe {
            p.mode_user = true;
        } else {
            self.exec_data(p, slot_pc, slot);
        }

        match inst {
            Instruction::J { target } => {
                p.pc = jump_target(pc, target);
                Step::Continue
            }
            Instruction::Jal { target } => {
                let ret = pc.wrapping_add(8);
                p.set_reg(Reg::RA, SymVal::known(ret));
                p.call_stack.push(ret);
                p.pc = jump_target(pc, target);
                Step::Continue
            }
            Instruction::Jalr { rd, rs: _ } => {
                let ret = pc.wrapping_add(8);
                p.set_reg(rd, SymVal::known(ret));
                match jr_target.unwrap_or(SymVal::Top).as_const() {
                    Some(t) => {
                        p.call_stack.push(ret);
                        p.pc = t;
                        Step::Continue
                    }
                    None => {
                        self.finding(
                            Lint::UnresolvedJump,
                            pc,
                            "indirect call target cannot be resolved symbolically",
                        );
                        Step::Terminal(Terminal::Cut)
                    }
                }
            }
            Instruction::Jr { .. } => {
                let target = jr_target.unwrap_or(SymVal::Top);
                if slot_is_rfe {
                    // The kernel's vector-to-user exit: check the save
                    // protocol, then continue into the handler (or stop at
                    // the boundary in kernel-only depth).
                    return self.vector_exit(p, pc, target);
                }
                match target {
                    SymVal::Sym(Token::Epc, _) => self.resume_terminal(p, pc, target),
                    SymVal::Sym(Token::Handler, 0) => {
                        self.outcome.reached = true;
                        Step::Terminal(Terminal::ToHandler)
                    }
                    _ => match target.as_const() {
                        Some(t) => {
                            if p.call_stack.last() == Some(&t) {
                                p.call_stack.pop();
                            }
                            p.pc = t;
                            Step::Continue
                        }
                        None => {
                            self.finding(
                                Lint::UnresolvedJump,
                                pc,
                                "jump-register target cannot be resolved symbolically",
                            );
                            Step::Terminal(Terminal::Cut)
                        }
                    },
                }
            }
            // Conditional branches.
            _ => {
                let Some((_, _, imm)) = sem::branch_operands(inst) else {
                    unreachable!("non-branch handled above")
                };
                let taken_pc = branch_target(pc, imm);
                if matches!(
                    inst,
                    Instruction::Bltzal { .. } | Instruction::Bgezal { .. }
                ) {
                    p.set_reg(Reg::RA, SymVal::known(pc.wrapping_add(8)));
                }
                match decision {
                    Some(true) => {
                        p.pc = taken_pc;
                        Step::Continue
                    }
                    Some(false) => {
                        p.pc = pc.wrapping_add(8);
                        Step::Continue
                    }
                    None => {
                        let mut fork = p.clone();
                        fork.pc = taken_pc;
                        self.work.push(fork);
                        p.pc = pc.wrapping_add(8);
                        Step::Continue
                    }
                }
            }
        }
    }

    /// The `jr`-with-`rfe`-slot exit from kernel to user: enforce the save
    /// protocol, then continue into the registered handler.
    fn vector_exit(&mut self, p: &mut Path, pc: u32, target: SymVal) -> Step {
        for &r in &self.config.protocol_saved {
            if !p.saved_regs.contains(&r) {
                self.finding(
                    Lint::MissingSaveOnPath,
                    pc,
                    format!(
                        "path reaches the vector-to-user exit without saving ${} to its comm slot",
                        r.name()
                    ),
                );
            }
        }
        p.mode_user = true;
        match target {
            SymVal::Sym(Token::Handler, 0) => {
                self.outcome.reached = true;
                Step::Terminal(Terminal::ToHandler)
            }
            SymVal::Sym(Token::Epc, _) => self.resume_terminal(p, pc, target),
            _ => match target.as_const() {
                Some(t) => {
                    if self.scenario.depth == Depth::KernelOnly {
                        self.outcome.reached = true;
                        return Step::Terminal(Terminal::ToHandler);
                    }
                    p.pc = t;
                    Step::Continue
                }
                None => {
                    self.finding(
                        Lint::UnresolvedJump,
                        pc,
                        "vector-to-user exit target cannot be resolved symbolically",
                    );
                    Step::Terminal(Terminal::Cut)
                }
            },
        }
    }

    /// Terminal: user code resumes at/after the faulting instruction.
    /// Closes the return span and runs the restore-pairing checks.
    fn resume_terminal(&mut self, p: &mut Path, pc: u32, target: SymVal) -> Step {
        // Restore-slot agreement: any register whose live value came from a
        // comm-frame load must have been loaded from its own slot.
        let frame_base = self.scenario.class.code() * self.config.comm.frame_size;
        for (&r, &(off, load_addr)) in &p.restored_from {
            let rel = off.wrapping_sub(frame_base);
            let owner = self
                .config
                .comm
                .slot_owners
                .iter()
                .find(|&&(slot, _)| slot == rel)
                .map(|&(_, owner)| owner);
            match owner {
                Some(owner) if owner != r => {
                    self.finding(
                        Lint::WrongSlotRestore,
                        load_addr,
                        format!(
                            "${} is restored from the ${} slot (frame offset {:#x}) on a path to \
                             the user resume",
                            r.name(),
                            owner.name(),
                            rel
                        ),
                    );
                }
                None if rel >= self.config.comm.frame_size
                    && off < self.config.comm.page_len
                    && self
                        .config
                        .comm
                        .slot_owners
                        .iter()
                        .any(|&(slot, _)| slot == off % self.config.comm.frame_size) =>
                {
                    // A protocol slot, but in another class's frame.
                    self.finding(
                        Lint::WrongSlotRestore,
                        load_addr,
                        format!(
                            "${} is restored from another exception class's comm frame \
                             (page offset {:#x}, delivering class {:?})",
                            r.name(),
                            off,
                            self.scenario.class
                        ),
                    );
                }
                _ => {}
            }
        }

        // Close the return span.
        let resume_off = match target {
            SymVal::Sym(Token::Epc, off) => Some(off),
            _ => None,
        };
        let retry = resume_off == Some(0);
        if retry || resume_off.is_none() {
            // Resuming at the faulting instruction re-executes it.
            let c = self.scenario.fault_cost;
            if retry {
                p.charge(c, c);
            } else {
                p.charge(0, c);
            }
            if self.scenario.return_may_refill {
                // The handler invalidated the TLB entry: the retry may miss,
                // refill, and try again.
                let excursion = self.scenario.fault_cost
                    + self.config.exception_entry_cycles
                    + 1
                    + self.config.host.refill_cycles;
                p.charge(0, excursion);
            }
        }
        let _ = pc;
        if let Some((rlo, rhi)) = p.ret_mark {
            merge_span(&mut self.outcome.ret, p.lo - rlo, p.hi - rhi);
        }
        Step::Terminal(Terminal::ResumeUser)
    }

    /// Models the three host calls of the delivery protocol.
    fn host_call(&mut self, p: &mut Path, pc: u32, code: u32) -> Step {
        match code {
            // UTLB refill, then the real fault through the general vector.
            // A TLB-modification fault means the refill installed a
            // read-only mapping and the retried access (`fault_cost`)
            // raised it. A TLB load or store fault means the refill could
            // not map the page: the host re-raises it without a retry.
            // Either way the machine pays one exception entry.
            0 => {
                p.refills += 1;
                if p.refills > self.config.max_refills {
                    self.finding(
                        Lint::RefillDivergence,
                        pc,
                        format!(
                            "UTLB refill re-raised more than {} times; the refill loop does not \
                             terminate",
                            self.config.max_refills
                        ),
                    );
                    return Step::Terminal(Terminal::Cut);
                }
                let refill = self.config.host.refill_cycles;
                let retry = if p.cur_class == ExcCode::TlbMod {
                    self.scenario.fault_cost
                } else {
                    0
                };
                let reraise = retry + self.config.exception_entry_cycles;
                p.charge(refill + reraise, refill + reraise);
                // Fresh exception: CP0 state is live again.
                p.saved_epc = false;
                p.saved_cause = false;
                p.saved_badvaddr = false;
                p.cp0.insert(Cp0Reg::Epc as u8, SymVal::tok(Token::Epc));
                p.cp0
                    .insert(Cp0Reg::BadVaddr as u8, SymVal::tok(Token::BadVaddr));
                p.cp0.insert(Cp0Reg::Cause as u8, cause_bits(p.cur_class));
                p.mode_user = false;
                p.pc = self.config.general_vector;
                Step::Continue
            }
            // Standard path: Unix signal delivery or syscall dispatch.
            1 => {
                if p.cur_class == ExcCode::Syscall {
                    return self.host_syscall(p, pc);
                }
                let (mut lo, mut hi) = self.config.host.standard;
                if p.cur_class.is_tlb() {
                    lo += self.config.host.standard_tlb_extra;
                    hi += self.config.host.standard_tlb_extra;
                }
                p.charge(lo, hi);
                p.saved_epc = true;
                p.saved_cause = true;
                p.saved_badvaddr = true;
                let resume = match (self.scenario.depth, self.config.host.standard_resume) {
                    (Depth::Deep, Some(r)) => r,
                    _ => {
                        self.outcome.reached = true;
                        return Step::Terminal(Terminal::StandardPath);
                    }
                };
                // The host saves the full register file into the
                // sigcontext, then redirects into the trampoline.
                for r in Reg::all() {
                    p.mem
                        .rel
                        .insert((Token::SigCtx, 4 * r.number() as i32), p.reg(r));
                }
                let epc = p
                    .cp0
                    .get(&(Cp0Reg::Epc as u8))
                    .copied()
                    .unwrap_or(SymVal::Top);
                p.mem.rel.insert((Token::SigCtx, resume.sigctx_pc_off), epc);
                p.set_reg(Reg::A0, SymVal::Top); // signal number
                p.set_reg(Reg::A1, SymVal::known(p.cur_class.code()));
                p.set_reg(Reg::A2, SymVal::tok(Token::SigCtx));
                p.set_reg(Reg::T9, SymVal::known(resume.handler));
                p.set_reg(Reg::SP, SymVal::Sym(Token::SigCtx, -24));
                p.mode_user = true;
                p.pc = resume.trampoline_entry;
                Step::Continue
            }
            // Fast TLB exception: host page-table work, then resume in the
            // registered handler. The guest save phase wrote the comm frame
            // before this call; the host does not write it.
            2 => {
                let (lo, hi) = self.config.host.fast_tlb;
                p.charge(lo, hi);
                match (self.scenario.depth, self.config.handler) {
                    (Depth::Deep, Some(h)) => {
                        p.mode_user = true;
                        p.pc = h;
                        Step::Continue
                    }
                    _ => {
                        self.outcome.reached = true;
                        Step::Terminal(Terminal::HostCompleted)
                    }
                }
            }
            _ => {
                self.finding(
                    Lint::UnresolvedJump,
                    pc,
                    format!("hcall {code} is not part of the delivery protocol"),
                );
                Step::Terminal(Terminal::Cut)
            }
        }
    }

    /// A `syscall` in user mode raises through the general vector like any
    /// other exception; the host dispatch happens at the fallback hcall.
    fn syscall(&mut self, p: &mut Path, pc: u32) -> Step {
        if !p.mode_user {
            // The kernel image itself contains no syscalls; treat as a
            // nested raise that destroys live state (reported by the
            // vulnerability check).
            return Step::Terminal(Terminal::Cut);
        }
        let entry = self.config.exception_entry_cycles;
        p.charge(entry, entry);
        p.cur_class = ExcCode::Syscall;
        p.cp0.insert(Cp0Reg::Epc as u8, SymVal::known(pc));
        p.cp0
            .insert(Cp0Reg::Cause as u8, cause_bits(ExcCode::Syscall));
        p.cp0.insert(Cp0Reg::Status as u8, status_bits());
        p.saved_epc = false;
        p.saved_cause = false;
        p.saved_badvaddr = true; // syscalls have no bad address
        p.mode_user = false;
        p.pc = self.config.general_vector;
        Step::Continue
    }

    /// Host syscall dispatch at the fallback hcall (class == Syscall).
    fn host_syscall(&mut self, p: &mut Path, pc: u32) -> Step {
        let epc = p
            .cp0
            .get(&(Cp0Reg::Epc as u8))
            .copied()
            .unwrap_or(SymVal::Top);
        match p.reg(Reg::V0).as_const() {
            Some(2) => Step::Terminal(Terminal::Halt), // SYS_exit
            Some(5) => {
                // SYS_sigreturn: restore from the sigcontext and resume at
                // its saved PC (which the handler may have advanced).
                let (lo, hi) = self.config.host.sigreturn;
                p.charge(lo, hi);
                let sc = p.reg(Reg::A0);
                let target = match sc {
                    SymVal::Sym(Token::SigCtx, base) => {
                        let off = self
                            .config
                            .host
                            .standard_resume
                            .map(|r| r.sigctx_pc_off)
                            .unwrap_or(136);
                        p.mem
                            .rel
                            .get(&(Token::SigCtx, base + off))
                            .copied()
                            .unwrap_or(SymVal::Top)
                    }
                    _ => SymVal::Top,
                };
                self.resume_terminal(p, pc, target)
            }
            _ => {
                // Any other syscall: charge the host interval and resume
                // after the syscall instruction.
                let (lo, hi) = self.config.host.other_syscall;
                p.charge(lo, hi);
                match epc {
                    SymVal::Bits { .. } if epc.as_const().is_some() => {
                        p.set_reg(Reg::V0, SymVal::Top);
                        p.set_reg(Reg::A3, SymVal::Top);
                        p.mode_user = true;
                        p.pc = epc.as_const().unwrap().wrapping_add(4);
                        Step::Continue
                    }
                    _ => {
                        self.outcome.reached = true;
                        Step::Terminal(Terminal::StandardPath)
                    }
                }
            }
        }
    }

    /// Non-control, non-system instruction effects.
    fn exec_data(&mut self, p: &mut Path, pc: u32, inst: Instruction) {
        use Instruction::*;
        if let Some((rd, rs, rt)) = sem::alu_operands(inst) {
            let v = eval_alu(inst, p.reg(rs), p.reg(rt));
            p.set_reg(rd, v);
            return;
        }
        if let Some(a) = sem::mem_access(inst) {
            let place = self.resolve(effective_addr(p, a));
            let word = a.width == 4;
            if a.store {
                let v = if word { p.reg(a.rt) } else { SymVal::Top };
                self.store(p, pc, place, v);
            } else {
                let v = self.load(p, pc, place, word);
                p.set_reg(a.rt, v);
                if let (true, Place::Comm(off)) = (word, place) {
                    p.restored_from.insert(a.rt, (off & !3, pc));
                }
            }
            return;
        }
        match inst {
            Mfc0 { rt, rd } => {
                let v = match Cp0Reg::from_number(rd) {
                    Some(Cp0Reg::Prid) => SymVal::known(0x0000_0230),
                    Some(_) => p.cp0.get(&rd).copied().unwrap_or(SymVal::Top),
                    None => SymVal::known(0),
                };
                p.set_reg(rt, v);
            }
            Mtc0 { rt, rd } => {
                let v = p.reg(rt);
                p.cp0.insert(rd, v);
            }
            Tlbr | Tlbwi | Tlbwr | Tlbp | Utlbp { .. } => {}
            Mfhi { rd } | Mflo { rd } => p.set_reg(rd, SymVal::Top),
            Mthi { .. } | Mtlo { .. } | Mult { .. } | Multu { .. } | Div { .. } | Divu { .. } => {}
            _ => {}
        }
    }

    fn resolve(&self, addr: SymVal) -> Place {
        let comm = &self.config.comm;
        if let Some(a) = addr.as_const() {
            if a.wrapping_sub(comm.user_base) < comm.page_len {
                return Place::Comm(a - comm.user_base);
            }
            if let Some(k) = comm.kseg0_base {
                if a.wrapping_sub(k) < comm.page_len {
                    return Place::Comm(a - k);
                }
            }
            let ua = &self.config.uarea;
            if a.wrapping_sub(ua.base) < ua.len {
                return Place::Uarea(a - ua.base);
            }
            return Place::Abs(a);
        }
        match addr {
            SymVal::Sym(Token::CommBase, off) => {
                if off >= 0 && (off as u32) < comm.page_len {
                    Place::Comm(off as u32)
                } else {
                    Place::Unknown
                }
            }
            SymVal::Sym(t, off) => Place::Rel(t, off),
            _ => Place::Unknown,
        }
    }

    fn load(&mut self, p: &mut Path, pc: u32, place: Place, word: bool) -> SymVal {
        match place {
            Place::Comm(off) => {
                let off = off & !3;
                match p.mem.comm.get(&off).copied() {
                    Some(v) if word => v,
                    Some(_) => SymVal::Top,
                    None => {
                        if !p.mem.hazy {
                            self.finding(
                                Lint::UndefinedCommRead,
                                pc,
                                format!(
                                    "reads comm-page word at page offset {off:#x} that no \
                                     instruction defined during this delivery"
                                ),
                            );
                        }
                        SymVal::Top
                    }
                }
            }
            Place::Uarea(off) => {
                let abs_addr = self.config.uarea.base + off;
                if let Some(v) = p.mem.abs.get(&abs_addr) {
                    return *v;
                }
                match self.config.uarea.words.get(&(off & !3)) {
                    Some(UareaWord::Known(v)) if word => SymVal::known(*v),
                    Some(UareaWord::CommBase) => match self.config.comm.kseg0_base {
                        Some(k) => SymVal::known(k),
                        None => SymVal::tok(Token::CommBase),
                    },
                    Some(UareaWord::Handler) => match self.config.handler {
                        Some(h) => SymVal::known(h),
                        None => SymVal::tok(Token::Handler),
                    },
                    _ => SymVal::Top,
                }
            }
            Place::Abs(a) => {
                if p.mem.hazy {
                    SymVal::Top
                } else {
                    p.mem.abs.get(&(a & !3)).copied().unwrap_or(SymVal::Top)
                }
            }
            Place::Rel(t, off) => {
                if word {
                    p.mem.rel.get(&(t, off)).copied().unwrap_or(SymVal::Top)
                } else {
                    SymVal::Top
                }
            }
            Place::Unknown => SymVal::Top,
        }
    }

    fn store(&mut self, p: &mut Path, pc: u32, place: Place, v: SymVal) {
        // State-saving recognition: a store of the EPC/Cause/BadVaddr value
        // anywhere closes the corresponding live window.
        match v {
            SymVal::Sym(Token::Epc, _) => p.saved_epc = true,
            SymVal::Sym(Token::Cause, _) => p.saved_cause = true,
            SymVal::Sym(Token::BadVaddr, _) => p.saved_badvaddr = true,
            // Cause folds to a Bits value; recognize it structurally.
            SymVal::Bits { .. } if v == cause_bits(p.cur_class) => p.saved_cause = true,
            _ => {}
        }
        match place {
            Place::Comm(off) => {
                let off = off & !3;
                p.mem.comm.insert(off, v);
                // Protocol-save recognition and slot agreement.
                if let SymVal::Sym(Token::Orig(r), 0) = v {
                    if self.config.protocol_saved.contains(&r) {
                        p.saved_regs.insert(r);
                        let frame_base = p.cur_class.code() * self.config.comm.frame_size;
                        let rel = off.wrapping_sub(frame_base);
                        if let Some(&(canon, _)) = self
                            .config
                            .comm
                            .slot_owners
                            .iter()
                            .find(|&&(_, owner)| owner == r)
                        {
                            if rel != canon {
                                self.finding(
                                    Lint::WrongSlotSave,
                                    pc,
                                    format!(
                                        "${} is saved to frame offset {rel:#x}; its canonical \
                                         slot is {canon:#x}",
                                        r.name()
                                    ),
                                );
                            }
                        }
                    }
                }
            }
            Place::Uarea(off) => {
                p.mem.abs.insert(self.config.uarea.base + (off & !3), v);
            }
            Place::Abs(a) => {
                p.mem.abs.insert(a & !3, v);
            }
            Place::Rel(t, off) => {
                p.mem.rel.insert((t, off), v);
            }
            Place::Unknown => {
                p.mem.hazy = true;
            }
        }
    }

    /// While CP0 exception state is live in kernel mode, any instruction
    /// that can itself fault would destroy it. The documented windows are
    /// allowed; everything else is a finding.
    fn vulnerability_check(&mut self, p: &mut Path, pc: u32, inst: Instruction) {
        if p.mode_user || !p.cp0_live() {
            return;
        }
        p.live_end = Some(p.live_end.map_or(pc, |e| e.max(pc)));
        let faultable = self.can_fault(p, inst);
        if !faultable {
            return;
        }
        let documented = self
            .config
            .documented_windows
            .iter()
            .any(|&(s, e)| pc >= s && pc < e);
        if !documented {
            self.finding(
                Lint::VulnerableWindow,
                pc,
                "faultable instruction outside the documented window while EPC/Cause/BadVaddr \
                 are live in CP0",
            );
        }
    }

    fn can_fault(&self, p: &Path, inst: Instruction) -> bool {
        use Instruction::*;
        match inst {
            Add { rs, rt, .. } | Sub { rs, rt, .. } => {
                match (p.reg(rs).as_const(), p.reg(rt).as_const()) {
                    (Some(a), Some(b)) => sem::alu_overflows(inst, a, b),
                    _ => true,
                }
            }
            Addi { rs, .. } => match p.reg(rs).as_const() {
                Some(a) => sem::alu_overflows(inst, a, 0),
                None => true,
            },
            Syscall { .. } | Break { .. } => true,
            _ => match sem::mem_access(inst) {
                Some(a) => match self.resolve(effective_addr(p, a)) {
                    // The comm page is pinned; the u-area and the kseg0
                    // segment are unmapped kernel space.
                    Place::Comm(_) | Place::Uarea(_) => false,
                    Place::Abs(a) => !(0x8000_0000..0xa000_0000).contains(&a),
                    Place::Rel(_, _) | Place::Unknown => true,
                },
                None => false,
            },
        }
    }
}

fn merge_span(span: &mut Option<(u64, u64)>, lo: u64, hi: u64) {
    *span = Some(match *span {
        None => (lo, hi),
        Some((l, h)) => (l.min(lo), h.max(hi)),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_ops_track_known_bits() {
        // Cause for Breakpoint: code 9 in bits 2..=6.
        let c = cause_bits(ExcCode::Breakpoint);
        // srl 2 then andi 0x1f must fold to the code.
        let shifted = bits_binop(
            Instruction::Srl {
                rd: Reg::T0,
                rt: Reg::T0,
                shamt: 2,
            },
            SymVal::Top,
            c,
        );
        let code = bits_binop(
            Instruction::Andi {
                rt: Reg::T0,
                rs: Reg::T0,
                imm: 0x1f,
            },
            shifted,
            SymVal::known(0),
        );
        assert_eq!(code.as_const(), Some(9));
        // The branch-delay bit (bit 31) must stay unknown through a
        // `srl 31`: the canary handler's BD-branch has to fork.
        let bd = bits_binop(
            Instruction::Srl {
                rd: Reg::T0,
                rt: Reg::T0,
                shamt: 31,
            },
            SymVal::Top,
            c,
        );
        assert_eq!(bd.as_const(), None);
        match bd {
            SymVal::Bits { mask, .. } => assert_eq!(mask & 1, 0, "BD bit wrongly known"),
            other => panic!("expected Bits, got {other:?}"),
        }
    }

    #[test]
    fn status_kup_test_folds() {
        let s = status_bits();
        let v = bits_binop(
            Instruction::Andi {
                rt: Reg::T0,
                rs: Reg::T0,
                imm: 8,
            },
            s,
            SymVal::known(0),
        );
        assert_eq!(v.as_const(), Some(8));
    }

    #[test]
    fn token_offset_arithmetic() {
        let sp = SymVal::tok(Token::Orig(Reg::SP));
        let moved = eval_alu(
            Instruction::Addiu {
                rt: Reg::SP,
                rs: Reg::SP,
                imm: -80,
            },
            sp,
            SymVal::known(0),
        );
        assert_eq!(moved, SymVal::Sym(Token::Orig(Reg::SP), -80));
        let back = eval_alu(
            Instruction::Addiu {
                rt: Reg::SP,
                rs: Reg::SP,
                imm: 80,
            },
            moved,
            SymVal::known(0),
        );
        assert_eq!(back, SymVal::Sym(Token::Orig(Reg::SP), 0));
    }

    #[test]
    fn branch_decisions_on_partial_bits() {
        // beqz on a value with a known set bit is never taken.
        let v = SymVal::Bits { val: 8, mask: 8 };
        let d = branch_decision(
            Instruction::Beq {
                rs: Reg::T0,
                rt: Reg::ZERO,
                imm: 1,
            },
            v,
            SymVal::known(0),
        );
        assert_eq!(d, Some(false));
        // beqz on a fully unknown value forks.
        let d = branch_decision(
            Instruction::Beq {
                rs: Reg::T0,
                rt: Reg::ZERO,
                imm: 1,
            },
            SymVal::Top,
            SymVal::known(0),
        );
        assert_eq!(d, None);
    }
}
