//! Findings, path bounds, and the analysis report.

use efex_mips::asm::Program;
use efex_mips::disasm::disassemble_at;
use efex_mips::isa::{Instruction, Reg};
use std::fmt;

/// The kind of defect a [`Finding`] reports.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Lint {
    /// A branch or jump sits in another control transfer's delay slot —
    /// architecturally undefined on the MIPS.
    BranchInDelaySlot,
    /// A load in a delay slot whose destination is consumed by the first
    /// instruction at a branch target: the MIPS-I load delay extends across
    /// the transfer, so the consumer sees the stale value.
    LoadUseInDelaySlot,
    /// An `rfe` outside the delay slot of its return jump: the CP0 status
    /// pop and the PC redirect would not commit together.
    MisplacedRfe,
    /// Overflow-trapping arithmetic (`add`/`addi`/`sub`) on the
    /// recursive-exception-critical path, where a fault would destroy the
    /// live CP0 exception state.
    TrappingArithOnCriticalPath,
    /// A register the handler clobbers without saving it in the
    /// communication frame (and which is not kernel-reserved).
    UnsavedClobber,
    /// A register saved into the communication frame that is neither
    /// clobbered by the handler nor part of the user-scratch contract.
    DeadSave,
    /// A register the protocol promises to the user handler that the code
    /// never actually saves.
    MissingProtocolSave,
    /// A fast path longer than the configured instruction budget.
    OverBudgetPath,
    /// A path through the handler that revisits an instruction — no static
    /// instruction bound exists.
    UnboundedPath,
    /// A memory reference that cannot be proven to land, aligned, inside a
    /// pinned region.
    UnpinnedMemoryReference,
    /// Execution can fall past the end of the assembled image.
    RunsOffImage,
    /// A reachable word that does not decode to an instruction.
    Undecodable,
    /// A protocol register saved into a comm-frame slot other than its
    /// canonical one (symbolic pass).
    WrongSlotSave,
    /// A register restored from a comm-frame slot that does not belong to
    /// it on some path to the resume (symbolic pass).
    WrongSlotRestore,
    /// A comm-page word read on a path where no earlier instruction (guest
    /// or host) defined it during this delivery (symbolic pass).
    UndefinedCommRead,
    /// A path reaches the vector-to-user exit without having saved one of
    /// the protocol registers (symbolic pass).
    MissingSaveOnPath,
    /// A faultable instruction executes while EPC/Cause/BadVaddr are still
    /// live in CP0 outside the documented recursive-exception window
    /// (symbolic pass).
    VulnerableWindow,
    /// The UTLB refill loop re-raised more times than the architectural
    /// bound — the refill path does not terminate (symbolic pass).
    RefillDivergence,
    /// An indirect jump whose target the symbolic executor cannot resolve
    /// to a concrete address or a known protocol value (symbolic pass).
    UnresolvedJump,
    /// An architecturally raisable exception class that never reaches any
    /// handler terminal (symbolic pass).
    ClassUnreachable,
    /// A call-graph cycle through `jal`/`jr` — recursion with no static
    /// path bound (symbolic pass).
    RecursiveCall,
}

impl Lint {
    /// Stable kebab-case code used in diagnostics and tests.
    pub fn code(self) -> &'static str {
        match self {
            Lint::BranchInDelaySlot => "delay-slot-branch",
            Lint::LoadUseInDelaySlot => "delay-slot-load-use",
            Lint::MisplacedRfe => "misplaced-rfe",
            Lint::TrappingArithOnCriticalPath => "critical-path-trap",
            Lint::UnsavedClobber => "unsaved-clobber",
            Lint::DeadSave => "dead-save",
            Lint::MissingProtocolSave => "missing-protocol-save",
            Lint::OverBudgetPath => "over-budget-path",
            Lint::UnboundedPath => "unbounded-path",
            Lint::UnpinnedMemoryReference => "unpinned-memory-reference",
            Lint::RunsOffImage => "runs-off-image",
            Lint::Undecodable => "undecodable",
            Lint::WrongSlotSave => "wrong-slot-save",
            Lint::WrongSlotRestore => "wrong-slot-restore",
            Lint::UndefinedCommRead => "undefined-comm-read",
            Lint::MissingSaveOnPath => "missing-save-on-path",
            Lint::VulnerableWindow => "vulnerable-window",
            Lint::RefillDivergence => "refill-divergence",
            Lint::UnresolvedJump => "unresolved-jump",
            Lint::ClassUnreachable => "class-unreachable",
            Lint::RecursiveCall => "recursive-call",
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One diagnostic: a defect at a specific instruction, located by label,
/// source line, and disassembly.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// What kind of defect.
    pub lint: Lint,
    /// Address of the offending instruction.
    pub addr: u32,
    /// `label+0xOFF` location resolved against the program's code labels,
    /// or the raw address when no label precedes it.
    pub location: String,
    /// 1-based source line of the instruction, when known.
    pub line: Option<u32>,
    /// Human-readable description of the defect.
    pub message: String,
    /// Disassembly of the offending instruction (with resolved targets).
    pub context: String,
}

impl Finding {
    /// Builds a finding at `addr`, resolving location, line, and
    /// disassembly from `prog`.
    pub fn new(prog: &Program, lint: Lint, addr: u32, message: impl Into<String>) -> Finding {
        let location = match prog.locate(addr) {
            Some((label, 0)) => label.to_string(),
            Some((label, off)) => format!("{label}+{off:#x}"),
            None => format!("{addr:#010x}"),
        };
        let context = match prog.word_at(addr).map(efex_mips::decode::decode) {
            Some(Ok(inst)) => disassemble_at(inst, addr, Some(prog.symbols())),
            Some(Err(_)) => format!(".word {:#010x}", prog.word_at(addr).unwrap_or(0)),
            None => "<no instruction>".to_string(),
        };
        Finding {
            lint,
            addr,
            location,
            line: prog.line_at(addr),
            message: message.into(),
            context,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:#010x} {} [{}] {}",
            self.addr, self.location, self.lint, self.message
        )?;
        if let Some(line) = self.line {
            write!(f, " (line {line})")?;
        }
        write!(f, "\n    > {}", self.context)
    }
}

/// Static instruction/cycle counts of one phase along the fast path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PhaseBound {
    /// Phase label (e.g. `fexc_save`).
    pub label: String,
    /// Instructions executed inside the phase on the fast path.
    pub instructions: u64,
    /// Cycles charged to the phase (single-issue cost model).
    pub cycles: u64,
}

/// Static bounds of the fast path: entry to the vector-to-user exit.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PathBounds {
    /// Per-phase counts in handler order.
    pub per_phase: Vec<PhaseBound>,
    /// Total instructions on the longest vector-to-user path.
    pub total_instructions: u64,
    /// Total cycles on that path.
    pub total_cycles: u64,
}

/// The result of [`crate::analyze`]: findings plus computed facts.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Report {
    /// Every defect found, in address order.
    pub findings: Vec<Finding>,
    /// Fast-path bounds, when the bounds check ran and a vector-to-user
    /// exit exists.
    pub fast_path: Option<PathBounds>,
    /// Registers written per phase (phase label, clobbered registers),
    /// computed by the save-set pass.
    pub phase_clobbers: Vec<(String, Vec<Reg>)>,
    /// Reachable instructions analyzed.
    pub instructions_analyzed: usize,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// True when no finding was produced.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings of one lint kind.
    pub fn with_lint(&self, lint: Lint) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.lint == lint)
    }

    /// Drops all but the first finding for each `(address, lint)` pair.
    ///
    /// The analysis phases overlap on purpose (the hazard walk, the save-set
    /// pass, and the symbolic explorer all visit the same instructions), so
    /// one defect can surface several times with slightly different
    /// wording. Reports keep the first — phases run in severity order — and
    /// callers see each defect once.
    pub fn dedup(&mut self) {
        let mut seen = std::collections::HashSet::new();
        self.findings.retain(|f| seen.insert((f.addr, f.lint)));
    }

    /// Renders the report as a monospace block: findings first, then the
    /// fast-path table when present.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{f}\n"));
        }
        if let Some(fp) = &self.fast_path {
            out.push_str(&format!(
                "fast path: {} instructions, {} cycles\n",
                fp.total_instructions, fp.total_cycles
            ));
            for p in &fp.per_phase {
                out.push_str(&format!(
                    "  {:<16} {:>3} instructions {:>4} cycles\n",
                    p.label, p.instructions, p.cycles
                ));
            }
        }
        out
    }
}

/// The per-instruction cost charged by the simulator's single-issue model
/// (base + memory + multiply/divide/TLB latencies) — the static side of the
/// cycle bound.
pub fn static_cost(inst: Instruction) -> u64 {
    use efex_mips::cycles;
    let mut cost = cycles::BASE;
    if inst.is_memory_access() {
        cost += cycles::MEM_ACCESS;
    }
    match inst {
        Instruction::Mult { .. } | Instruction::Multu { .. } => cost += cycles::MULT,
        Instruction::Div { .. } | Instruction::Divu { .. } => cost += cycles::DIV,
        Instruction::Tlbr
        | Instruction::Tlbwi
        | Instruction::Tlbwr
        | Instruction::Tlbp
        | Instruction::Utlbp { .. } => cost += cycles::TLB_OP,
        _ => {}
    }
    cost
}
