//! The cycle cost model and its calibration.
//!
//! The paper's measurements were taken on a 25 MHz DECstation 5000/200 with
//! warm caches. We model that machine with a simple single-issue cost model:
//! every instruction takes [`BASE`] cycle, memory instructions pay
//! [`MEM_ACCESS`] extra (warm-cache load/store), multiplies and divides pay
//! their R3000 latencies, TLB management ops pay a small CP0 cost, and
//! exception entry flushes the pipeline for [`EXCEPTION_ENTRY`] cycles.
//!
//! ## One static cost
//!
//! [`static_cost`] is the one definition of what an instruction charges:
//! the interpreter's `step`, every superblock op, the verifier's cycle
//! bounds and the kernel's composed bench cases all call it. An instruction
//! that faults pays it too. The one dynamic case is a privileged TLB op
//! (`tlbr`, `tlbwi`, `tlbwr`, `tlbp`) refused in user mode: the privilege
//! check comes before the TLB work, so it pays only [`BASE`] before it
//! raises `CopUnusable`. [`charged`] is [`static_cost`] with that case.
//! (`utlbp` is legal in user mode and always pays [`TLB_OP`].)
//!
//! ## Calibration anchors (from the paper)
//!
//! - *"the architectural limit for an exception that enters the kernel and
//!   returns immediately is about 2 µs"* — 50 cycles at 25 MHz. Our
//!   entry flush (30) + a minimal decode-and-`rfe` sequence (~10
//!   instructions ≈ 15 cycles) + return redirect ≈ 50.
//! - *"an Ultrix null kernel call (e.g. getpid) is 12 µs"* — 300 cycles;
//!   the simulated kernel charges [`ULTRIX_NULL_SYSCALL`] for its
//!   general-purpose syscall wrapper.
//!
//! All reported microseconds are `cycles / CLOCK_MHZ`.

use crate::isa::Instruction;

/// The simulated clock, MHz (DECstation 5000/200).
pub const CLOCK_MHZ: f64 = 25.0;

/// Cycles for any instruction's issue.
pub const BASE: u64 = 1;

/// Extra cycles for a warm-cache memory access (load or store).
pub const MEM_ACCESS: u64 = 1;

/// Extra cycles for `mult`/`multu` (R3000 latency, result interlock).
pub const MULT: u64 = 11;

/// Extra cycles for `div`/`divu`.
pub const DIV: u64 = 34;

/// Extra cycles for TLB management co-functions (`tlbwi`, `tlbwr`, `tlbr`,
/// `tlbp`) and the efex `utlbp`.
pub const TLB_OP: u64 = 2;

/// Pipeline flush + vectoring cost charged when the hardware takes an
/// exception into kernel mode.
pub const EXCEPTION_ENTRY: u64 = 30;

/// Hardware user-level vectoring (the Tera-style PC/UXT exchange) skips the
/// kernel-mode flush and mode change; entry costs only a short redirect.
pub const USER_VECTOR_ENTRY: u64 = 4;

/// Cycles the Ultrix-style kernel charges for a null system call
/// (12 µs at 25 MHz), used as the calibration for the conventional kernel's
/// general-purpose entry/exit wrapper.
pub const ULTRIX_NULL_SYSCALL: u64 = 300;

/// The cycles one instruction costs: [`BASE`], plus [`MEM_ACCESS`] for a load
/// or store, plus [`MULT`], [`DIV`] or [`TLB_OP`] as the opcode needs.
#[inline(always)]
pub fn static_cost(inst: Instruction) -> u64 {
    use Instruction::*;
    BASE + match inst {
        Mult { .. } | Multu { .. } => MULT,
        Div { .. } | Divu { .. } => DIV,
        Tlbr | Tlbwi | Tlbwr | Tlbp | Utlbp { .. } => TLB_OP,
        _ if inst.is_memory_access() => MEM_ACCESS,
        _ => 0,
    }
}

/// The cycles the machine charges for `inst` in the given mode: its
/// [`static_cost`], except that a privileged TLB op refused in user mode
/// pays only [`BASE`] (see the module docs).
#[inline(always)]
pub fn charged(inst: Instruction, user: bool) -> u64 {
    use Instruction::*;
    if user && matches!(inst, Tlbr | Tlbwi | Tlbwr | Tlbp) {
        BASE
    } else {
        static_cost(inst)
    }
}

/// Converts a cycle count to microseconds at [`CLOCK_MHZ`].
pub fn to_micros(cycles: u64) -> f64 {
    cycles as f64 / CLOCK_MHZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_at_the_clock() {
        assert_eq!(to_micros(250), 10.0);
    }

    #[test]
    fn static_cost_charges_each_latency() {
        use crate::isa::{Instruction, Reg};
        let (rs, rt) = (Reg::T0, Reg::T1);
        assert_eq!(static_cost(Instruction::NOP), BASE);
        let lw = Instruction::Lw {
            rt,
            base: rs,
            imm: 0,
        };
        assert_eq!(static_cost(lw), BASE + MEM_ACCESS);
        assert_eq!(static_cost(Instruction::Multu { rs, rt }), BASE + MULT);
        assert_eq!(static_cost(Instruction::Div { rs, rt }), BASE + DIV);
        assert_eq!(static_cost(Instruction::Tlbwr), BASE + TLB_OP);
        assert_eq!(charged(Instruction::Tlbwr, true), BASE);
        let utlbp = Instruction::Utlbp {
            rs,
            op: crate::isa::TlbProtOp::WriteEnable,
        };
        assert_eq!(charged(utlbp, true), BASE + TLB_OP);
    }

    #[test]
    fn architectural_limit_anchor_holds() {
        // Entry flush + ~10 minimal kernel instructions + rfe return must be
        // near the paper's 2 us architectural limit.
        let approx = EXCEPTION_ENTRY + 15 + 5;
        let us = to_micros(approx);
        assert!((1.5..=2.5).contains(&us), "got {us}");
    }
}
