//! System coprocessor (CP0) state.
//!
//! Implements the R3000 registers the simulated kernel needs — Status,
//! Cause, EPC, BadVaddr, EntryHi/EntryLo, Index/Random, Context — plus the
//! paper's proposed user-exception extension (Section 2):
//!
//! - **UXT** (user exception target): loaded by user software with its
//!   handler address; the hardware *exchanges* PC and UXT on a user-vectored
//!   exception, exactly as in the Tera machine (Section 2.1).
//! - **UXC** (user exception condition): loaded by hardware with the cause
//!   code and BD bit of a user-vectored exception, laid out as in `Cause`
//!   so that user handlers share the kernel's decode (the bad address goes
//!   to BadVAddr, as on a kernel entry).
//! - **UXM** (user exception mask): which synchronous exceptions are
//!   delivered directly to user mode.
//! - A *user-exception-active* flag in the status word, so that recursive
//!   exceptions fall back to the kernel (Section 2.2).

use crate::exception::ExcCode;

/// CP0 register numbers (the `rd` field of `mfc0`/`mtc0`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Cp0Reg {
    /// TLB index for `tlbwi`/`tlbr`.
    Index = 0,
    /// Pseudo-random TLB index for `tlbwr`.
    Random = 1,
    /// TLB entry low half (PFN + protection bits).
    EntryLo = 2,
    /// Page-table context helper (kernel convention).
    Context = 4,
    /// Faulting virtual address.
    BadVaddr = 8,
    /// TLB entry high half (VPN + ASID).
    EntryHi = 10,
    /// Processor status word.
    Status = 12,
    /// Exception cause.
    Cause = 13,
    /// Exception program counter.
    Epc = 14,
    /// Processor identity.
    Prid = 15,
    /// efex extension: user exception target.
    Uxt = 24,
    /// efex extension: user exception condition.
    Uxc = 25,
    /// efex extension: user exception mask.
    Uxm = 26,
}

impl Cp0Reg {
    /// Decodes an `mfc0`/`mtc0` register field.
    pub fn from_number(n: u8) -> Option<Cp0Reg> {
        use Cp0Reg::*;
        Some(match n {
            0 => Index,
            1 => Random,
            2 => EntryLo,
            4 => Context,
            8 => BadVaddr,
            10 => EntryHi,
            12 => Status,
            13 => Cause,
            14 => Epc,
            15 => Prid,
            24 => Uxt,
            25 => Uxc,
            26 => Uxm,
            _ => return None,
        })
    }
}

/// Status register bit positions (R3000 layout).
pub mod status {
    /// Current interrupt enable.
    pub const IEC: u32 = 1 << 0;
    /// Current mode: 1 = user, 0 = kernel.
    pub const KUC: u32 = 1 << 1;
    /// Previous interrupt enable.
    pub const IEP: u32 = 1 << 2;
    /// Previous mode.
    pub const KUP: u32 = 1 << 3;
    /// Old interrupt enable.
    pub const IEO: u32 = 1 << 4;
    /// Old mode.
    pub const KUO: u32 = 1 << 5;
    /// efex extension: user-level exception vectoring enabled.
    pub const UXE: u32 = 1 << 16;
    /// efex extension: a user-level handler is currently active
    /// (set by hardware on user vectoring, cleared by `xpcu`).
    pub const UXA: u32 = 1 << 17;
    /// Mask of the six-bit mode/interrupt stack.
    pub const KU_IE_STACK: u32 = 0x3f;
}

/// Cause register fields.
pub mod cause {
    /// Exception code field shift.
    pub const EXC_SHIFT: u32 = 2;
    /// Exception code field mask (applied after shifting).
    pub const EXC_MASK: u32 = 0x1f;
    /// Branch-delay bit: the exception occurred in a delay slot and EPC
    /// points at the branch.
    pub const BD: u32 = 1 << 31;
}

/// The system coprocessor.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Cp0 {
    /// TLB index register (`tlbwi`/`tlbp` target slot).
    pub index: u32,
    /// TLB random-replacement register.
    pub random: u32,
    /// Low half of a TLB entry (PFN and protection bits).
    pub entry_lo: u32,
    /// Context register: kernel PTE-base plus faulting VPN.
    pub context: u32,
    /// The virtual address of the last addressing fault.
    pub bad_vaddr: u32,
    /// High half of a TLB entry (VPN and ASID).
    pub entry_hi: u32,
    /// Processor status: mode/interrupt stack and the efex extension bits
    /// (see [`status`]).
    pub status: u32,
    /// Exception cause (see [`cause`]).
    pub cause: u32,
    /// Exception program counter: where to resume.
    pub epc: u32,
    /// User exception target (paper extension).
    pub uxt: u32,
    /// User exception condition (paper extension).
    pub uxc: u32,
    /// User exception mask (paper extension): bit *n* set means `ExcCode`
    /// *n* is delivered directly to user level.
    pub uxm: u32,
}

impl Cp0 {
    /// A freshly reset coprocessor: kernel mode, interrupts disabled.
    pub fn new() -> Cp0 {
        Cp0::default()
    }

    /// Reads a register by number; unknown registers read as zero, matching
    /// the forgiving behaviour real kernels rely on.
    pub fn read(&self, reg: u8) -> u32 {
        match Cp0Reg::from_number(reg) {
            Some(Cp0Reg::Index) => self.index,
            Some(Cp0Reg::Random) => self.random,
            Some(Cp0Reg::EntryLo) => self.entry_lo,
            Some(Cp0Reg::Context) => self.context,
            Some(Cp0Reg::BadVaddr) => self.bad_vaddr,
            Some(Cp0Reg::EntryHi) => self.entry_hi,
            Some(Cp0Reg::Status) => self.status,
            Some(Cp0Reg::Cause) => self.cause,
            Some(Cp0Reg::Epc) => self.epc,
            Some(Cp0Reg::Prid) => 0x0000_0230, // R3000A-ish
            Some(Cp0Reg::Uxt) => self.uxt,
            Some(Cp0Reg::Uxc) => self.uxc,
            Some(Cp0Reg::Uxm) => self.uxm,
            None => 0,
        }
    }

    /// Writes a register by number. Read-only registers (BadVaddr, Random,
    /// PRId) and unknown numbers are ignored.
    pub fn write(&mut self, reg: u8, value: u32) {
        match Cp0Reg::from_number(reg) {
            Some(Cp0Reg::Index) => self.index = value & 0x3f00, // index in bits 13..8
            Some(Cp0Reg::EntryLo) => self.entry_lo = value,
            Some(Cp0Reg::Context) => self.context = value,
            Some(Cp0Reg::EntryHi) => self.entry_hi = value,
            Some(Cp0Reg::Status) => self.status = value,
            Some(Cp0Reg::Cause) => {
                // Only the software interrupt bits are writable on a real
                // R3000; we allow none, and so ignore the write.
            }
            Some(Cp0Reg::Epc) => self.epc = value,
            Some(Cp0Reg::Uxt) => self.uxt = value,
            Some(Cp0Reg::Uxc) => self.uxc = value,
            Some(Cp0Reg::Uxm) => self.uxm = value,
            _ => {}
        }
    }

    /// Whether the processor is currently in user mode.
    pub fn user_mode(&self) -> bool {
        self.status & status::KUC != 0
    }

    /// `rfe`: pops the mode/interrupt stack.
    pub fn rfe(&mut self) {
        let stack = self.status & status::KU_IE_STACK;
        self.status = (self.status & !0x0f) | ((stack >> 2) & 0x0f);
    }

    /// The exception code currently latched in `Cause`.
    pub fn exc_code(&self) -> Option<ExcCode> {
        ExcCode::from_code((self.cause >> cause::EXC_SHIFT) & cause::EXC_MASK)
    }

    /// Whether `Cause.BD` is set (faulting instruction was in a delay slot).
    pub fn cause_bd(&self) -> bool {
        self.cause & cause::BD != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut cp0 = Cp0::new();
        cp0.write(Cp0Reg::Uxt as u8, 0xdead_beec);
        assert_eq!(cp0.read(Cp0Reg::Uxt as u8), 0xdead_beec);
        cp0.write(Cp0Reg::Epc as u8, 0x42);
        assert_eq!(cp0.read(Cp0Reg::Epc as u8), 0x42);
        // BadVaddr is read-only.
        cp0.bad_vaddr = 7;
        cp0.write(Cp0Reg::BadVaddr as u8, 0);
        assert_eq!(cp0.read(Cp0Reg::BadVaddr as u8), 7);
    }
}
